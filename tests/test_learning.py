"""The network learns the octave-separated synthetic task it is benchmarked on.

The four synthetic classes put their energy in four separate octaves, so band
energy alone separates them. A tiny network trained for 15 epochs on 38 clips
must score unseen clips well above chance (0.25), with and without the BiGRU.
The seeds, sizes and threshold are fixed; they are not tuned to pass.
"""

import numpy as np
import pytest

from wavelearn.data import default_synthetic_spec, generate_synthetic
from wavelearn.model import ModelConfig, Network, apply_ablation
from wavelearn.training import AdamState, LossConfig, predict, stratified_split, train_model
from wavelearn.wavelet import FrontEndConfig

TINY = ModelConfig(frontend=FrontEndConfig(levels=6, kernel_size=4), conv_channels=4,
                   gru_layers=1, gru_hidden=4)
THRESHOLD = 0.85


def _clips(seed, per_class):
    spec = default_synthetic_spec(levels=6, seed=seed, length_range=(600, 800))
    clips = generate_synthetic(spec, per_class)
    return [c.samples for c in clips], np.array([c.label for c in clips])


@pytest.mark.parametrize("cfg", [TINY, apply_ablation(TINY, "allkernel+laht-nogru")],
                         ids=["bigru", "nogru"])
def test_tiny_network_learns_the_synthetic_octaves(cfg):
    samples, labels = _clips(seed=0, per_class=15)
    train, _, _ = stratified_split(labels, 0, test_frac=0.2)
    assert len(train) == 38
    net = Network(cfg, seed=0)
    train_model(net, [samples[i] for i in train], labels[train], LossConfig(),
                AdamState(lr=1e-2), epochs=15, seed=0, batch_size=8)

    unseen, unseen_labels = _clips(seed=100, per_class=10)
    predicted, _ = predict(net, unseen)
    accuracy = float(np.mean(predicted == unseen_labels))
    assert accuracy >= THRESHOLD, f"accuracy {accuracy:.3f} on unseen clips"
