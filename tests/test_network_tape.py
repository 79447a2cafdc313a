import functools
from collections import Counter

import numpy as np

from wavelearn import autodiff as ad
from wavelearn.autodiff import Tape, Tensor, backward
from wavelearn.data import default_synthetic_spec, generate_synthetic
from wavelearn.features import band_features
from wavelearn.fusion import channel_weighting, classify, fuse_bands
from wavelearn.model import ABLATION_TAGS, ModelConfig, Network, apply_ablation
from wavelearn.recurrent import bigru_forward, temporal_attention
from wavelearn.training import LossConfig, focal_loss, predict
from wavelearn.wavelet import FrontEndConfig, frontend_forward

from memory import traced

# The 220 nodes of one recorded forward of the tiny network: each GRU
# direction is one `gru_scan` node, each band's temporal attention is one
# `temporal_attention` node over the last layer's two state views, each LAHT
# level thresholds both channels of its level with one `laht` node over its
# four raw parameters, and each wavelet level is one `stack` of its (h, g)
# bank, one `conv1d` and two `take`s of the approximation and detail channels.
# (227 when each band also summed its weighted map, unread, and 318 when each
# band concatenated its two views and attention took 13 nodes.)
TINY_FORWARD_KINDS = {
    "concat": 4, "conv1d": 35, "gru_scan": 28, "laht": 6, "leaf": 65, "leaky_relu": 21,
    "log_softmax": 1, "mean": 1, "mul": 8, "reshape": 7, "softmax": 7, "stack": 7,
    "take": 16, "temporal_attention": 7, "transpose": 7,
}
# The 166 nodes of the same forward under nogru: each band's width `sum` goes
# straight to the head, with no transpose, scan or temporal attention.
TINY_NOGRU_FORWARD_KINDS = {
    "concat": 4, "conv1d": 35, "laht": 6, "leaf": 46, "leaky_relu": 21, "log_softmax": 1,
    "mean": 1, "mul": 8, "reshape": 7, "softmax": 7, "stack": 7, "sum": 7, "take": 16,
}


def _tiny(tag=None, **fields):
    fields = {"conv_channels": 4, "gru_layers": 2, "gru_hidden": 4, **fields}
    cfg = ModelConfig(frontend=FrontEndConfig(levels=6), **fields)
    if tag is not None:
        cfg = apply_ablation(cfg, tag)
    spec = default_synthetic_spec(levels=6, seed=1, length_range=(1300, 1700))
    return Network(cfg, seed=3), generate_synthetic(spec, 1)[0]


def test_tiny_forward_records_the_pinned_nodes_per_kind():
    for bigru, kinds in ((True, TINY_FORWARD_KINDS), (False, TINY_NOGRU_FORWARD_KINDS)):
        net, clip = _tiny(bigru_enabled=bigru)
        with Tape() as tape:
            net.forward(clip.samples)
        assert dict(Counter(tape.kinds)) == kinds


def test_every_recorded_node_reaches_the_loss():
    # a node whose closure never runs is work, and tape memory, that no
    # output reads
    for tag in ABLATION_TAGS:
        net, clip = _tiny(tag)
        with Tape() as tape:
            log_probs = net.forward(clip.samples, training=True, dropout_seed=0)
            backward(focal_loss(log_probs, [clip.label], LossConfig()))
            assert all(f is None for f in tape.backward_fns), tag


def _bands(net, clip):
    return frontend_forward(Tensor(clip.samples.reshape(1, 1, -1)), net.cfg.frontend,
                            net.filters, net.lahts)


def test_encode_of_all_bands_equals_encode_of_each_band():
    net, clip = _tiny()
    bands = _bands(net, clip)
    together = [net.encode(band) for band in bands]
    assert [v.data.shape for v in together] == [(1, 8)] * 7
    for vector, band in zip(together, bands):
        assert np.array_equal(vector.data, net.encode(band).data)


def test_encode_draws_dropout_band_major_then_layer_by_layer():
    net, clip = _tiny(gru_layers=3, dropout=0.5)
    bands = _bands(net, clip)
    maps = [band_features(band, net.pipeline) for band in bands]
    reference = []
    rng = np.random.default_rng(11)
    for weighted in maps:  # one generator, one band after another
        states = bigru_forward(ad.transpose(weighted, (0, 2, 1)), net.stack, rng)
        reference.append(temporal_attention(states, net.temporal))
    drawn = []

    class Recording:  # a generator that logs the time extent of each mask it draws
        def __init__(self, rng):
            self.rng = rng

        def random(self, shape):
            drawn.append(shape[1])
            return self.rng.random(shape)

    rng = Recording(np.random.default_rng(11))
    vectors = [net.encode(band, rng) for band in bands]
    # two masks between three layers per band, the bands in order
    assert drawn == [w.data.shape[2] for w in maps for _ in range(2)]
    assert all(np.array_equal(v.data, r.data) for v, r in zip(vectors, reference))
    composed = classify(channel_weighting(fuse_bands(reference), net.channel_weights), net.head)
    forward = net.forward(clip.samples, training=True, dropout_seed=11)
    assert np.array_equal(forward.data, composed.data)


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
    with Tape(), traced() as usage:
        log_probs = net.forward(tiled, training=True, dropout_seed=0)
        kept = usage()[0]
        if not backward_too:
            return kept, None
        backward(focal_loss(log_probs, [clip.label], LossConfig()))
        high_water = usage()[1]
    return kept, high_water


def test_default_clip_forward_tape_stays_within_its_measured_size():
    # 7.34 MiB measured for this clip (8.86 when each scan kept a constant
    # column beside its states, each band concatenated its last two state
    # views and each laht kept both gates; 12.07 when each conv kept its im2col
    # matrix and band block 1 computed the odd columns block 2 never reads,
    # 15.76 when each BiGRU layer kept a dropped-out float64 copy of the
    # previous layer's states); the bound is +5%
    assert _clip_memory()[0] <= 1.05 * 7.34 * 2**20


def test_default_clip_backward_high_water_stays_within_its_measured_size():
    # 7.80 MiB measured for this clip (7.90 when every band's conv stack ran
    # before any scan, 9.31 when each scan's backward buffers held all T steps,
    # 12.51 with each conv's im2col matrix and all of band block 1, 19.41 when
    # every backward closure lived until the tape closed); the bound is +5%
    assert _clip_memory()[1] <= 1.05 * 7.80 * 2**20


def test_nogru_clip_forward_tape_stays_within_its_measured_size():
    # 1.85 MiB measured for this clip under nogru, which keeps no scan states
    # (2.23 when each laht kept both gates, 5.43 with each conv's im2col matrix
    # and all of band block 1); the bound is +5%
    assert _clip_memory("allkernel+laht-nogru")[0] <= 1.05 * 1.85 * 2**20


def test_nogru_clip_backward_high_water_stays_within_its_measured_size():
    # 2.60 MiB measured for this clip under nogru (2.98 when each laht kept
    # both gates, 5.99 with each conv's im2col matrix and all of band block 1);
    # the bound is +5%
    assert _clip_memory("allkernel+laht-nogru")[1] <= 1.05 * 2.60 * 2**20


def test_default_clip_predict_peak_stays_within_its_measured_size():
    # 1.30 MiB measured for one predict of this clip, which records no tape
    # (1.45 when every band's conv stack ran before any scan, 2.96 when each
    # scan's work array and input copy held all T steps); the bound is +5%
    clip = generate_synthetic(default_synthetic_spec(seed=0), 1)[0]
    net = Network(ModelConfig(), seed=0)
    predict(net, [clip.samples])  # first calls allocate a few kB that stay
    with traced() as usage:
        predict(net, [clip.samples])
        peak = usage()[1]
    assert peak <= 1.05 * 1.30 * 2**20


def test_forward_tape_bytes_per_input_sample_do_not_grow_with_clip_length():
    # 760-768 B per sample measured at 12,083 samples and 736 at 48,000
    # (1,039-1,047 and 1,015 with each conv's im2col matrix and all of band
    # block 1): the tape is linear in length, so a path that pads rows to a
    # common length fails.  The fixed per-clip bytes weigh more as the
    # per-sample bytes fall, so the two readings draw apart.
    short = _clip_memory()[0] / 12083
    long = _clip_memory(samples=48000, backward_too=False)[0] / 48000
    assert abs(long - short) <= 0.05 * short
