import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavelearn.config import load_config
from wavelearn.errors import ConfigError, InputTooShortError
from wavelearn.model import ModelConfig, Network
from wavelearn.wavelet import FrontEndConfig


BAD = [
    ("model.conv_strides=1,1", "model.conv_strides"),  # 3 dilations, 2 strides
    ("model.conv_paddings=[]", "model.conv_paddings"),
    ("model.dilations=0,1,2", "model.dilations"),
    ("model.dropout=1.5", "model.dropout"),
    ("model.gru_layers=0", "model.gru_layers"),
    ("model.gru_hidden=0", "model.gru_hidden"),
    ("model.conv_channels=0", "model.conv_channels"),
    ("model.conv_kernel=0", "model.conv_kernel"),
    ("model.head_kernel=0", "model.head_kernel"),
    ("training.lr=-1", "training.lr"),
    ("training.lr=.nan", "training.lr"),
    ("training.gamma=-1", "training.gamma"),
    ("training.lam=-1", "training.lam"),  # would silently turn L2 off
    ("training.beta2=1", "training.beta2"),
    ("training.eps=0", "training.eps"),
    ("data.synthetic_n_per_class=0", "data.synthetic_n_per_class"),
    # the shortest band of an admissible clip has model.frontend.kernel_size samples
    ("model.conv_kernel=9", "model.conv_kernel"),
    ("model.conv_paddings=0,0,0", "model.conv_paddings"),
    ("model.head_kernel=33", "model.head_kernel"),  # the band vector is 2 * 16 wide
    ("model.gru_hidden=1", "model.gru_hidden"),
    # float64 derives the Daubechies filter orthonormal only up to 40 taps
    ("model.frontend.kernel_size=42", "model.frontend.kernel_size"),
    ("model.frontend.levels=0", "model.frontend.levels"),
    ("model.frontend.sharing=foo", "model.frontend.sharing"),
    # only a section's own fields are keys, not its methods or properties
    ("synthetic_spec=5", "synthetic_spec"),
    ("to_dict=1", "to_dict"),
    ("model.frontend.min_input_length=3", "model.frontend.min_input_length"),
    # no silent rounding or bool-as-number, and paths are strings
    ("model.gru_layers=2.5", "model.gru_layers"),
    ("training.epochs=true", "training.epochs"),
    ("training.lr=true", "training.lr"),
    ("data.manifest=5", "data.manifest"),
    ("data.root=7", "data.root"),
]


@pytest.mark.parametrize("override, key", BAD, ids=[override for override, _ in BAD])
def test_values_a_run_cannot_use_are_config_errors(override, key):
    with pytest.raises(ConfigError, match=key):
        load_config(None, [override])


def test_the_ablation_tag_overrides_the_file_and_set_overrides_the_tag(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("model:\n  bigru_enabled: false\n  frontend:\n    sharing: layer_wise\n")
    cfg = load_config(path, ["model.frontend.laht_enabled=true"], ablation="db10")
    assert (cfg.model.frontend.sharing, cfg.model.frontend.laht_enabled) == ("db10_fixed", True)
    assert cfg.model.bigru_enabled


BLOCK = st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2))  # dilation, stride, pad


def _spelled(values):
    """A one-entry tuple as the bare number `--set model.dilations=1`, else a list."""
    return values[0] if len(values) == 1 else list(values)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(levels=st.integers(1, 3), kernel_size=st.sampled_from([2, 4]),
       channels=st.integers(1, 3), conv_kernel=st.integers(1, 5),
       blocks=st.lists(BLOCK, min_size=1, max_size=3), hidden=st.integers(1, 3),
       bigru=st.booleans(), head_kernel=st.integers(1, 6))
def test_a_model_is_accepted_exactly_when_it_runs_on_the_shortest_clip(
        levels, kernel_size, channels, conv_kernel, blocks, hidden, bigru, head_kernel):
    dilations, strides, paddings = (tuple(b[i] for b in blocks) for i in range(3))
    model = ModelConfig(FrontEndConfig(levels=levels, kernel_size=kernel_size),
                        conv_channels=channels, conv_kernel=conv_kernel, dilations=dilations,
                        conv_strides=strides, conv_paddings=paddings, gru_layers=1,
                        gru_hidden=hidden, bigru_enabled=bigru, head_kernel=head_kernel)
    fields = {"frontend.levels": levels, "frontend.kernel_size": kernel_size,
              "conv_channels": channels, "conv_kernel": conv_kernel,
              "dilations": _spelled(dilations), "conv_strides": _spelled(strides),
              "conv_paddings": _spelled(paddings), "gru_layers": 1, "gru_hidden": hidden,
              "bigru_enabled": bigru, "head_kernel": head_kernel}
    try:
        accepted = load_config(None, [f"model.{k}={v}" for k, v in fields.items()]).model
    except ConfigError:
        accepted = None
    try:
        Network(model).forward(np.zeros(model.frontend.min_input_length))
        runs = True
    except InputTooShortError:
        runs = False
    assert (accepted is not None) == runs
    assert accepted in (None, model)
