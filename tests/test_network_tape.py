import functools
import tracemalloc
from collections import Counter

import numpy as np

from wavelearn import autodiff as ad
from wavelearn.autodiff import Tape, Tensor, backward
from wavelearn.data import default_synthetic_spec, generate_synthetic
from wavelearn.features import band_features
from wavelearn.model import ModelConfig, Network, apply_ablation
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
def _clip_memory(tag="allkernel+laht", samples=12083, backward_too=True):
    """Bytes the default clip's training tape holds after the forward, and at
    its high-water mark during the backward, above the memory before it.

    The network is the default one under the ablation ``tag``.  The clip is
    tiled to ``samples``; at 12,083 it is the clip as generated.  Without
    ``backward_too`` the high-water mark is None, and the run is about half as
    long: tracing every allocation slows both passes several times.
    """
    clip = generate_synthetic(default_synthetic_spec(seed=0), 1)[0]
    assert clip.samples.size == 12083
    tiled = np.resize(clip.samples, samples)
    net = Network(apply_ablation(ModelConfig(), tag), seed=0)
    tracemalloc.start()
    try:
        with Tape():
            before = tracemalloc.get_traced_memory()[0]
            log_probs = net.forward(tiled, training=True, dropout_seed=0)
            kept = tracemalloc.get_traced_memory()[0] - before
            if not backward_too:
                return kept, None
            backward(focal_loss(log_probs, [clip.label], LossConfig()))
            high_water = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return kept, high_water


def test_default_clip_forward_tape_stays_within_its_measured_size():
    # 8.86 MiB measured for this clip (12.07 when each conv kept its im2col
    # matrix and band block 1 computed the odd columns block 2 never reads,
    # 15.76 when each BiGRU layer kept a dropped-out float64 copy of the
    # previous layer's states); the bound is +5%
    assert _clip_memory()[0] <= 1.05 * 8.86 * 2**20


def test_default_clip_backward_high_water_stays_within_its_measured_size():
    # 9.31 MiB measured for this clip (12.51 with each conv's im2col matrix
    # and all of band block 1, 19.41 when every backward closure lived until
    # the tape closed); the bound is +5%
    assert _clip_memory()[1] <= 1.05 * 9.31 * 2**20


def test_nogru_clip_forward_tape_stays_within_its_measured_size():
    # 2.23 MiB measured for this clip under nogru, which keeps no scan states
    # (5.43 with each conv's im2col matrix and all of band block 1); the bound
    # is +5%
    assert _clip_memory("allkernel+laht-nogru")[0] <= 1.05 * 2.23 * 2**20


def test_nogru_clip_backward_high_water_stays_within_its_measured_size():
    # 2.98 MiB measured for this clip under nogru (5.99 with each conv's im2col
    # matrix and all of band block 1); the bound is +5%
    assert _clip_memory("allkernel+laht-nogru")[1] <= 1.05 * 2.98 * 2**20


def test_forward_tape_bytes_per_input_sample_do_not_grow_with_clip_length():
    # 760-768 B per sample measured at 12,083 samples and 736 at 48,000
    # (1,039-1,047 and 1,015 with each conv's im2col matrix and all of band
    # block 1): the tape is linear in length, so a path that pads rows to a
    # common length fails.  The fixed per-clip bytes weigh more as the
    # per-sample bytes fall, so the two readings draw apart.
    short = _clip_memory()[0] / 12083
    long = _clip_memory(samples=48000, backward_too=False)[0] / 48000
    assert abs(long - short) <= 0.05 * short
