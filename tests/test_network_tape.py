import functools
import tracemalloc
from collections import Counter

import numpy as np

from wavelearn import autodiff as ad
from wavelearn.autodiff import Tape, Tensor, backward
from wavelearn.data import default_synthetic_spec, generate_synthetic
from wavelearn.features import band_features
from wavelearn.model import ModelConfig, Network
from wavelearn.recurrent import bigru_forward, temporal_attention
from wavelearn.training import LossConfig, focal_loss
from wavelearn.wavelet import FrontEndConfig, frontend_forward

# The 318 nodes of one recorded forward of the tiny network: each GRU
# direction is one `gru_scan` node, each LAHT level thresholds both channels
# of its level with one `laht` node over its four raw parameters, and each
# wavelet level is one `stack` of its (h, g) bank, one `conv1d` and two
# `take`s of the approximation and detail channels.
TINY_FORWARD_KINDS = {
    "add": 7, "concat": 18, "conv1d": 35, "gru_scan": 28, "laht": 6,
    "leaf": 65, "leaky_relu": 21, "log_softmax": 1, "matmul": 28, "mean": 1,
    "mul": 8, "reshape": 21, "softmax": 14, "stack": 7, "sum": 7, "take": 23,
    "tanh": 7, "transpose": 21,
}
# The 166 nodes of the same forward under nogru: each band's summary goes
# straight to the head, with no transpose, scan or temporal attention.
TINY_NOGRU_FORWARD_KINDS = {
    "concat": 4, "conv1d": 35, "laht": 6, "leaf": 46, "leaky_relu": 21, "log_softmax": 1,
    "mean": 1, "mul": 8, "reshape": 7, "softmax": 7, "stack": 7, "sum": 7, "take": 16,
}


def _tiny(**fields):
    fields = {"conv_channels": 4, "gru_layers": 2, "gru_hidden": 4, **fields}
    cfg = ModelConfig(frontend=FrontEndConfig(levels=6), **fields)
    spec = default_synthetic_spec(levels=6, seed=1, length_range=(1300, 1700))
    return Network(cfg, seed=3), generate_synthetic(spec, 1)[0]


def test_tiny_forward_records_the_pinned_nodes_per_kind():
    for bigru, kinds in ((True, TINY_FORWARD_KINDS), (False, TINY_NOGRU_FORWARD_KINDS)):
        net, clip = _tiny(bigru_enabled=bigru)
        with Tape() as tape:
            net.forward(clip.samples)
        assert dict(Counter(tape.kinds)) == kinds


def _band_sequences(net, clip):
    bands = frontend_forward(Tensor(clip.samples.reshape(1, 1, -1)), net.cfg.frontend,
                             net.filters, net.lahts)
    return [band_features(b, net.pipeline.blocks, net.pipeline.attention) for b in bands]


def test_encode_of_all_bands_equals_encode_of_each_band():
    net, clip = _tiny()
    sequences = _band_sequences(net, clip)
    together = net.encode(sequences)
    assert [v.data.shape for v in together] == [(1, 8)] * 7
    for vector, sequence in zip(together, sequences):
        assert np.array_equal(vector.data, net.encode([sequence])[0].data)


def test_encode_draws_dropout_band_major_then_layer_by_layer():
    net, clip = _tiny(gru_layers=3, dropout=0.5)
    sequences = _band_sequences(net, clip)
    reference = []
    rng = np.random.default_rng(11)
    for weighted, _ in sequences:  # one generator, one band after another
        states = bigru_forward(ad.transpose(weighted, (0, 2, 1)), net.stack, rng)
        reference.append(temporal_attention(states, net.temporal).data)
    drawn = []

    class Recording:  # a generator that logs the time extent of each mask it draws
        def __init__(self, rng):
            self.rng = rng

        def random(self, shape):
            drawn.append(shape[1])
            return self.rng.random(shape)

    vectors = net.encode(sequences, Recording(np.random.default_rng(11)))
    # two masks between three layers per band, the bands in order
    assert drawn == [w.data.shape[2] for w, _ in sequences for _ in range(2)]
    assert all(np.array_equal(v.data, r) for v, r in zip(vectors, reference))


@functools.cache
def _default_clip_memory():
    """Bytes the default clip's training tape holds after the forward, and at
    its high-water mark during the backward, above the memory before it."""
    clip = generate_synthetic(default_synthetic_spec(seed=0), 1)[0]
    assert clip.samples.size == 12083
    net = Network(ModelConfig(), seed=0)
    tracemalloc.start()
    try:
        with Tape():
            before = tracemalloc.get_traced_memory()[0]
            log_probs = net.forward(clip.samples, training=True, dropout_seed=0)
            kept = tracemalloc.get_traced_memory()[0] - before
            backward(focal_loss(log_probs, [clip.label], LossConfig()))
            high_water = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return kept, high_water


def test_default_clip_forward_tape_stays_within_its_measured_size():
    # 12.07 MiB measured for this clip (15.76 MiB when each BiGRU layer kept a
    # dropped-out float64 copy of the previous layer's states); the bound is +5%
    assert _default_clip_memory()[0] <= 1.05 * 12.07 * 2**20


def test_default_clip_backward_high_water_stays_within_its_measured_size():
    # 12.51 MiB measured for this clip (19.41 MiB when every backward closure
    # lived until the tape closed); the bound is +5%
    assert _default_clip_memory()[1] <= 1.05 * 12.51 * 2**20
