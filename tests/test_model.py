import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wavelearn.autodiff import Tape, backward
from wavelearn.data import default_synthetic_spec, generate_synthetic
from wavelearn.errors import ConfigError
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


def _resolve(net, name):
    node = net
    for part in name.split("."):
        node = node[int(part)] if isinstance(node, list) else getattr(node, part)
    return node


@pytest.mark.parametrize("tag", ABLATION_TAGS)
def test_each_parameter_is_named_by_its_attribute_path(tag):
    net = Network(apply_ablation(ModelConfig(), tag), seed=0)
    params = net.parameters()
    assert all(_resolve(net, name) is p for name, p in params.items())
    assert len({id(p) for p in params.values()}) == len(params)


def test_default_network_names_its_blocks_in_forward_order():
    net = Network(ModelConfig(), seed=0)
    shapes = [(16, 1, 3), (16,), (16, 16, 3), (16,), (16, 16, 3), (16,), (1, 16, 1)]
    for layer in range(6):
        cell = [(48, 32 if layer else 16), (48, 16), (48,), (48,)]
        shapes += cell + cell
    expected = ([(20,)] * 16 + [()] * 32 + shapes
                + [(32, 32), (32, 64), (32,), (9,), (4, 9, 3), (4,)])
    params = net.parameters()
    assert [p.data.shape for p in params.values()] == expected
    assert list(params)[:2] + list(params)[-3:] == [
        "filters.h.0", "filters.h.1", "channel_weights.w", "head.weight", "head.bias"]
    assert list(dict.fromkeys(name.split(".")[0] for name in params)) == [
        "filters", "lahts", "pipeline", "stack", "temporal", "channel_weights", "head"]
    containers = [net.filters, net.lahts[0], net.pipeline, net.pipeline.blocks[0],
                  net.pipeline.attention, net.stack, net.stack.layers[0],
                  net.stack.layers[0].fwd, net.temporal, net.channel_weights, net.head]
    assert [c for c in containers if hasattr(c, "tensors") or hasattr(c, "parameters")] == []


@pytest.mark.parametrize("cfg, message", [
    (ModelConfig(frontend=FrontEndConfig(levels=0)),
     "model.frontend.levels is 0; need model.frontend.levels in [1, inf)"),
    (ModelConfig(dropout=1.0), "model.dropout is 1.0; need model.dropout in [0, 1)"),
    (ModelConfig(gru_hidden=1), "model.gru_hidden is 1; need it giving a band vector >= 3"),
    (ModelConfig(conv_channels=2, bigru_enabled=False),
     "model.conv_channels is 2; need it giving a band vector >= 3"),
], ids=["levels", "dropout", "gru-hidden", "nogru-channels"])
def test_a_hand_built_model_config_is_checked_by_the_network(cfg, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        Network(cfg)
