"""Run configuration: defaults < YAML file < ablation tag < dotted overrides.

``RunConfig.model`` is exactly the network a run builds: an ablation tag is
resolved into the model fields when the config is loaded, and ``train``
writes its dataset's class count into ``model.classes``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from functools import reduce
from pathlib import Path

import yaml

from .data import default_synthetic_spec
from .errors import ConfigError
from .model import ModelConfig, apply_ablation
from .wavelet import FrontEndConfig


@dataclass
class TrainingSection:
    lr: float = 2e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    epochs: int = 30
    batch_size: int = 16
    seed: int = 0
    test_frac: float = 0.1  # the test share, then the validation share of the rest
    gamma: float = 2.0
    lam: float = 1e-4


@dataclass
class DataSection:
    manifest: str | None = None
    root: str | None = None
    synthetic_n_per_class: int = 25
    synthetic_seed: int = 0
    synthetic_min_len: int = 8000
    synthetic_max_len: int = 12800


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    training: TrainingSection = field(default_factory=TrainingSection)
    data: DataSection = field(default_factory=DataSection)

    def synthetic_spec(self):
        return default_synthetic_spec(
            levels=self.model.frontend.levels,
            seed=self.data.synthetic_seed,
            length_range=(self.data.synthetic_min_len, self.data.synthetic_max_len),
        )

    def to_dict(self):
        out = asdict(self)
        out["model"]["dilations"] = list(self.model.dilations)
        out["model"]["conv_strides"] = list(self.model.conv_strides)
        out["model"]["conv_paddings"] = list(self.model.conv_paddings)
        return out


def _integer(value):
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _coerce(value, template):
    if isinstance(template, bool):
        if isinstance(value, bool):
            return value
        if str(value).lower() in ("true", "1", "yes"):
            return True
        if str(value).lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"cannot read {value!r} as a boolean")
    if isinstance(template, int):
        return _integer(value)
    if isinstance(template, float):
        if isinstance(value, bool):
            raise ValueError(f"{value!r} is not a number")
        return float(value)
    if isinstance(template, tuple):
        if isinstance(value, str):
            value = [v for v in value.replace(",", " ").split() if v]
        elif not isinstance(value, (list, tuple)):
            value = [value]  # YAML reads a bare `1` as an int
        return tuple(_integer(v) for v in value)
    if value is not None and not isinstance(value, str):  # str and str | None fields
        raise ValueError(f"{value!r} is not a string")
    return value


def _apply_mapping(obj, mapping, path=""):
    names = {f.name for f in fields(obj)}
    for key, value in mapping.items():
        where = f"{path}.{key}" if path else str(key)
        if key not in names:
            raise ConfigError(f"unknown config key {where!r}")
        current = getattr(obj, key)
        if hasattr(current, "__dataclass_fields__"):
            if not isinstance(value, dict):
                raise ConfigError(f"{where!r} must be a mapping")
            _apply_mapping(current, value, where)
        else:
            try:
                setattr(obj, key, _coerce(value, current))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {where!r}: {exc}") from exc


def load_config(path=None, overrides=(), ablation=None):
    """Build a RunConfig from an optional YAML file, ablation tag and dotted overrides.

    Later sources win: the file over the defaults, the tag (one of
    ``model.ABLATION_TAGS``) over the file's model fields, and overrides
    such as ``model.frontend.levels=4`` over both.
    """
    cfg = RunConfig()
    if path is not None:
        try:
            raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}")
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}")
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top level must be a mapping")
        _apply_mapping(cfg, raw)
    if ablation is not None:
        cfg.model = apply_ablation(cfg.model, ablation)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key.path=value")
        dotted, _, text = item.partition("=")
        value = yaml.safe_load(text)
        mapping = {}
        cursor = mapping
        keys = dotted.strip().split(".")
        for key in keys[:-1]:
            cursor[key] = {}
            cursor = cursor[key]
        cursor[keys[-1]] = value
        _apply_mapping(cfg, mapping)
    _validate(cfg)
    return cfg


def from_mapping(mapping):
    """A validated RunConfig from defaults plus a nested mapping.

    ``mapping`` has the layout of ``RunConfig.to_dict()``, which is what a
    checkpoint's ``run`` entry holds.
    """
    cfg = RunConfig()
    _apply_mapping(cfg, mapping)
    _validate(cfg)
    return cfg


def _validate(cfg):
    fe = cfg.model.frontend
    FrontEndConfig(**asdict(fe))  # re-run its checks on the coerced values
    if cfg.data.synthetic_min_len < fe.min_input_length:
        raise ConfigError(
            f"synthetic_min_len {cfg.data.synthetic_min_len} below the "
            f"front-end minimum {fe.min_input_length}"
        )
    m, t = cfg.model, cfg.training
    if not len(m.dilations) == len(m.conv_strides) == len(m.conv_paddings) >= 1:
        raise ConfigError("model.dilations, model.conv_strides and model.conv_paddings "
                          "need one entry each per conv block")
    rules = {  # each rule's first word is the key it checks
        "model.dilations entries >= 1": min(m.dilations) >= 1,
        "model.conv_strides entries >= 1": min(m.conv_strides) >= 1,
        "model.conv_paddings entries >= 0": min(m.conv_paddings) >= 0,
        "model.dropout in [0, 1)": 0 <= m.dropout < 1,
        "training.test_frac in (0, 1)": 0 < t.test_frac < 1,
        "training.lr > 0": t.lr > 0,
        "training.beta1 in [0, 1)": 0 <= t.beta1 < 1,
        "training.beta2 in [0, 1)": 0 <= t.beta2 < 1,
        "training.eps > 0": t.eps > 0,
        "training.gamma >= 0": t.gamma >= 0,
        "training.lam >= 0": t.lam >= 0,
    }
    for key in ("conv_channels", "conv_kernel", "gru_layers", "gru_hidden", "head_kernel"):
        rules[f"model.{key} >= 1"] = getattr(m, key) >= 1
    rules["training.epochs >= 1"] = t.epochs >= 1
    rules["training.batch_size >= 1"] = t.batch_size >= 1
    rules["data.synthetic_n_per_class >= 1"] = cfg.data.synthetic_n_per_class >= 1
    for rule, ok in rules.items():
        if not ok:
            key = rule.split()[0]
            raise ConfigError(f"{key} is {reduce(getattr, key.split('.'), cfg)!r}; need {rule}")
    # an admissible clip's shortest band has kernel_size samples, and a conv's
    # output only widens with its input, so checking that width is exact
    width = fe.kernel_size
    for block, (d, s, p) in enumerate(zip(m.dilations, m.conv_strides, m.conv_paddings)):
        width = (width + 2 * p - d * (m.conv_kernel - 1) - 1) // s + 1
        if width < 1:
            raise ConfigError(
                f"model.conv_kernel, model.dilations, model.conv_strides and "
                f"model.conv_paddings leave a {fe.kernel_size}-sample band "
                f"(model.frontend.kernel_size) no output at conv block {block}")
    vector = 2 * m.gru_hidden if m.bigru_enabled else m.conv_channels
    if m.head_kernel > vector:
        raise ConfigError(f"model.head_kernel is {m.head_kernel}; need <= the band-vector "
                          f"width {vector} (2 * model.gru_hidden, or model.conv_channels "
                          f"when model.bigru_enabled is false)")
