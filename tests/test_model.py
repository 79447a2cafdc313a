import numpy as np
import pytest
from numpy.testing import assert_allclose

from wavelearn.autodiff import Tape, backward
from wavelearn.data import default_synthetic_spec, generate_synthetic
from wavelearn.model import ABLATION_TAGS, ModelConfig, Network, apply_ablation
from wavelearn.training import AdamState, LossConfig, focal_loss, train_model
from wavelearn.wavelet import FrontEndConfig

# A fixed-seed forward and two-epoch trajectory of the tiny network; a change
# to these numbers is a change to the model's math.
GOLDEN_LOG_PROBS = [
    [-1.382478697189955, -1.3946113851146462, -1.3902376615953091, -1.3779342878490777],
    [-1.3819712933474133, -1.3948953856887947, -1.389206679275238, -1.37917993146049],
]
GOLDEN_EPOCH_LOSSES = [0.7798879907096417, 0.7854131407112344]


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
    assert net.parameter_count() == 32489
    assert len(net.parameters()) == 109


@pytest.mark.parametrize("tag", ABLATION_TAGS)
def test_every_parameter_gets_a_gradient_from_one_training_clip(tag):
    cfg = apply_ablation(ModelConfig(frontend=FrontEndConfig(levels=6, kernel_size=4),
                                     conv_channels=4, gru_layers=2, gru_hidden=4), tag)
    clip = generate_synthetic(default_synthetic_spec(levels=6, seed=0,
                                                     length_range=(600, 800)), 1)[0]
    net = Network(cfg, seed=0)
    with Tape():
        log_probs = net.forward(clip.samples, training=True, dropout_seed=0)
        backward(focal_loss(log_probs, [clip.label], LossConfig()))
    dead = [name for name, p in net.parameters().items()
            if p.grad is None or np.abs(p.grad).max() <= 1e-12]
    assert dead == []
