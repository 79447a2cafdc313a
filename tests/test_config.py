import re
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavelearn import model as modelmod
from wavelearn.config import RunConfig, load_config
from wavelearn.errors import ConfigError, InputTooShortError
from wavelearn.model import ModelConfig, Network
from wavelearn.wavelet import FrontEndConfig


BAD = [
    # the conv geometry and the head kernel are fixed in features.py and fusion.py
    ("model.conv_strides=1,1", "unknown config key 'model.conv_strides'"),
    ("model.conv_paddings=[]", "unknown config key 'model.conv_paddings'"),
    ("model.dilations=0,1,2", "unknown config key 'model.dilations'"),
    ("model.conv_kernel=0", "unknown config key 'model.conv_kernel'"),
    ("model.head_kernel=0", "unknown config key 'model.head_kernel'"),
    ("model.conv_kernel=9", "unknown config key 'model.conv_kernel'"),
    ("model.conv_paddings=0,0,0", "unknown config key 'model.conv_paddings'"),
    ("model.head_kernel=33", "unknown config key 'model.head_kernel'"),
    ("model.dropout=1.5", "model.dropout"),
    ("model.gru_layers=0", "model.gru_layers"),
    ("model.gru_hidden=0", "model.gru_hidden"),
    ("model.conv_channels=0", "model.conv_channels"),
    ("training.lr=-1", "training.lr"),
    ("training.lr=.nan", "training.lr"),
    ("training.gamma=-1", "training.gamma"),
    ("training.lam=-1", "training.lam"),  # would silently turn L2 off
    ("training.beta2=1", "training.beta2"),
    ("training.eps=0", "training.eps"),
    ("data.synthetic_n_per_class=0", "data.synthetic_n_per_class"),
    ("model.gru_hidden=1", "model.gru_hidden"),  # a 2-wide band vector; the head has 3 taps
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
    ("training.seed=[", "training.seed"),  # not YAML
    # train derives the class count from its dataset's class names
    ("model.classes=1", "model.classes"),
]


@pytest.mark.parametrize("override, key", BAD, ids=[override for override, _ in BAD])
def test_values_a_run_cannot_use_are_config_errors(override, key):
    with pytest.raises(ConfigError, match=key):
        load_config(None, [override])


def _leaves(section, prefix=""):
    for f in fields(section):
        value = getattr(section, f.name)
        if is_dataclass(value):
            yield from _leaves(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, f, value


def test_every_number_a_run_reads_declares_its_domain():
    numbers = {key: f for key, f, value in _leaves(RunConfig())
               if isinstance(value, (int, float)) and not isinstance(value, bool)}
    assert "model.frontend.kernel_size" in numbers
    assert [key for key, f in numbers.items() if "domain" not in f.metadata] == []


FLOATS = [key for key, _, value in _leaves(RunConfig()) if isinstance(value, float)]


@pytest.mark.parametrize("value", [".inf", "-.inf", ".nan"])
@pytest.mark.parametrize("key", FLOATS)
def test_a_float_setting_admits_no_infinity_and_no_nan(key, value):
    with pytest.raises(ConfigError, match=f"^{re.escape(key)} is "):
        load_config(None, [f"{key}={value}"])


def test_a_config_file_cannot_set_the_derived_class_count(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("model:\n  classes: 1\n")
    with pytest.raises(ConfigError, match="model.classes"):
        load_config(path)


def test_the_ablation_tag_overrides_the_file_and_set_overrides_the_tag(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("model:\n  bigru_enabled: false\n  frontend:\n    sharing: layer_wise\n")
    cfg = load_config(path, ["model.frontend.laht_enabled=true"], ablation="db10")
    assert (cfg.model.frontend.sharing, cfg.model.frontend.laht_enabled) == ("db10_fixed", True)
    assert cfg.model.bigru_enabled


@settings(max_examples=60, deadline=None, derandomize=True)
@given(levels=st.integers(1, 3), kernel_size=st.sampled_from([2, 4]),
       channels=st.integers(1, 3), hidden=st.integers(1, 3), bigru=st.booleans())
def test_a_model_is_accepted_exactly_when_it_runs_on_the_shortest_clip(
        levels, kernel_size, channels, hidden, bigru):
    model = ModelConfig(FrontEndConfig(levels=levels, kernel_size=kernel_size),
                        conv_channels=channels, gru_layers=1, gru_hidden=hidden,
                        bigru_enabled=bigru)
    fields = {"frontend.levels": levels, "frontend.kernel_size": kernel_size,
              "conv_channels": channels, "gru_layers": 1, "gru_hidden": hidden,
              "bigru_enabled": bigru}
    try:
        accepted = load_config(None, [f"model.{k}={v}" for k, v in fields.items()]).model
    except ConfigError:
        accepted = None
    try:
        Network(model)
        built = True
    except ConfigError:
        built = False
    with pytest.MonkeyPatch.context() as patch:  # what runs without the band-width rule
        patch.setattr(modelmod, "check_band_width", lambda cfg: None)
        try:
            Network(model).forward(np.zeros(model.frontend.min_input_length))
            runs = True
        except InputTooShortError:
            runs = False
    assert (accepted is not None) == built == runs
    assert accepted in (None, model)
