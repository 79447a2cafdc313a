from collections import Counter

from wavelearn.autodiff import Tape
from wavelearn.data import default_synthetic_spec, generate_synthetic
from wavelearn.model import ModelConfig, Network
from wavelearn.wavelet import FrontEndConfig

# The 474 nodes of one recorded forward of the tiny network: each GRU
# direction is one `gru_scan` node and each LAHT level reparameterizes once.
TINY_FORWARD_KINDS = {
    "add": 38, "concat": 25, "conv1d": 41, "exp": 12, "gru_scan": 28,
    "leaf": 65, "leaky_relu": 21, "log_softmax": 1,
    "matmul": 28, "mean": 8, "mul": 44, "neg": 6, "reshape": 41, "sigmoid": 24,
    "softmax": 14, "softplus": 12, "stack": 1, "sub": 12, "sum": 7, "take": 11,
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
