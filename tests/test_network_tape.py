import tracemalloc
from collections import Counter

import numpy as np

from wavelearn import autodiff as ad
from wavelearn.autodiff import Tape, Tensor
from wavelearn.data import default_synthetic_spec, generate_synthetic
from wavelearn.features import band_features
from wavelearn.model import ModelConfig, Network
from wavelearn.recurrent import bigru_forward, temporal_attention
from wavelearn.wavelet import FrontEndConfig, frontend_forward

# The 325 nodes of one recorded forward of the tiny network: each GRU
# direction is one `gru_scan` node, each LAHT level thresholds both channels
# of its level with one `laht` node over its four raw parameters, and each
# wavelet level is one `stack` of its (h, g) bank, one `conv1d` and two
# `take`s of the approximation and detail channels.
TINY_FORWARD_KINDS = {
    "add": 7, "concat": 25, "conv1d": 35, "gru_scan": 28, "laht": 6,
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


def test_encode_draws_dropout_band_major_then_layer_by_layer(monkeypatch):
    net, clip = _tiny(gru_layers=3, dropout=0.5)
    sequences = _band_sequences(net, clip)
    reference = []
    rng = np.random.default_rng(11)
    for weighted, _ in sequences:  # one generator, one band after another
        states = bigru_forward(ad.transpose(weighted, (0, 2, 1)), net.stack, rng)
        reference.append(temporal_attention(states, net.temporal).data)
    drawn = []
    dropout = ad.dropout

    def recording(x, p, rng):
        drawn.append(x.data.shape[1])
        return dropout(x, p, rng)

    monkeypatch.setattr(ad, "dropout", recording)
    vectors = net.encode(sequences, np.random.default_rng(11))
    # two masks between three layers per band, the bands in order
    assert drawn == [w.data.shape[2] for w, _ in sequences for _ in range(2)]
    assert all(np.array_equal(v.data, r) for v, r in zip(vectors, reference))


def test_default_clip_forward_tape_stays_within_its_measured_size():
    # 17.6 MiB measured for this clip (20.7 MiB when each wavelet level ran
    # two convs and leaky_relu kept a float64 factor); the bound is +5%
    clip = generate_synthetic(default_synthetic_spec(seed=0), 1)[0]
    assert clip.samples.size == 12083
    net = Network(ModelConfig(), seed=0)
    tracemalloc.start()
    try:
        with Tape():
            before = tracemalloc.get_traced_memory()[0]
            net.forward(clip.samples, training=True, dropout_seed=0)
            kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= 1.05 * 17.6 * 2**20
