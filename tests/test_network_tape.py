import tracemalloc
from collections import Counter

from wavelearn.autodiff import Tape
from wavelearn.data import default_synthetic_spec, generate_synthetic
from wavelearn.model import ModelConfig, Network
from wavelearn.wavelet import FrontEndConfig

# The 346 nodes of one recorded forward of the tiny network: each GRU
# direction is one `gru_scan` node, each LAHT level thresholds both channels
# of its level with one `laht` node over its four raw parameters, and each
# wavelet level is one `stack` of its (h, g) bank, one `conv1d` and two
# `take`s of the approximation and detail channels.
TINY_FORWARD_KINDS = {
    "add": 7, "concat": 25, "conv1d": 35, "gru_scan": 28, "laht": 6,
    "leaf": 65, "leaky_relu": 21, "log_softmax": 1, "matmul": 28, "mean": 1,
    "mul": 8, "reshape": 35, "softmax": 14, "stack": 7, "sum": 7, "take": 23,
    "tanh": 7, "transpose": 28,
}


def test_tiny_forward_records_the_pinned_nodes_per_kind():
    cfg = ModelConfig(frontend=FrontEndConfig(levels=6), conv_channels=4,
                      gru_layers=2, gru_hidden=4)
    spec = default_synthetic_spec(levels=6, seed=1, length_range=(1300, 1700))
    clip = generate_synthetic(spec, 1)[0]
    net = Network(cfg, seed=3)
    with Tape() as tape:
        net.forward(clip.samples)
    assert dict(Counter(tape.kinds)) == TINY_FORWARD_KINDS


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
