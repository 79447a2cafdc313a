import numpy as np
from numpy.testing import assert_allclose

from wavelearn.data import default_synthetic_spec, generate_synthetic
from wavelearn.model import ModelConfig, Network
from wavelearn.training import AdamState, LossConfig, train_model
from wavelearn.wavelet import FrontEndConfig

# Recorded with the per-gate GRU layout (12 tensors per direction) that the
# fused layout replaced; the same seed must reproduce the same trajectory.
GOLDEN_LOG_PROBS = [
    [-1.4208070488575293, -1.358523337828588, -1.3913400952591908, -1.3755555186521111],
    [-1.419291663876791, -1.357106293151897, -1.3908198401135285, -1.3789654129011382],
]
GOLDEN_EPOCH_LOSSES = [0.7777265086382656, 0.7695429332169016]


def _tiny_run():
    cfg = ModelConfig(frontend=FrontEndConfig(levels=6), conv_channels=4,
                      gru_layers=2, gru_hidden=4)
    spec = default_synthetic_spec(levels=6, seed=1, length_range=(1300, 1700))
    clips = generate_synthetic(spec, 1)[:2]
    return Network(cfg, seed=3), [c.samples for c in clips], [c.label for c in clips]


def test_forward_and_training_match_the_golden_trajectory():
    net, samples, labels = _tiny_run()
    log_probs = np.concatenate([net.forward(s).data for s in samples])
    assert_allclose(log_probs, GOLDEN_LOG_PROBS, rtol=0, atol=1e-12)

    records = train_model(net, samples, labels, LossConfig(), AdamState(),
                          epochs=2, seed=3, batch_size=4)
    assert_allclose([r.loss for r in records], GOLDEN_EPOCH_LOSSES, rtol=0, atol=1e-10)


def test_default_network_size():
    net = Network(ModelConfig(), seed=0)
    assert net.parameter_count() == 32626
    assert len(net.parameters()) == 119
