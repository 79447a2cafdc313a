"""Run configuration: YAML files, dotted-path overrides, ablation tags."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

import yaml

from .data import default_synthetic_spec
from .errors import ConfigError
from .model import ABLATION_TAGS, ModelConfig, apply_ablation
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
    ablation: str | None = None

    def resolved_model(self):
        return apply_ablation(self.model, self.ablation)

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


def _coerce(value, template):
    if isinstance(template, bool):
        if isinstance(value, bool):
            return value
        if str(value).lower() in ("true", "1", "yes"):
            return True
        if str(value).lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"cannot read {value!r} as a boolean")
    if isinstance(template, int) and not isinstance(template, bool):
        return int(value)
    if isinstance(template, float):
        return float(value)
    if isinstance(template, tuple):
        if isinstance(value, str):
            value = [v for v in value.replace(",", " ").split() if v]
        return tuple(int(v) for v in value)
    return value if value is None or not isinstance(template, str) else str(value)


def _apply_mapping(obj, mapping, path=""):
    for key, value in mapping.items():
        where = f"{path}.{key}" if path else key
        if not hasattr(obj, key):
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


def load_config(path=None, overrides=()):
    """Build a RunConfig from an optional YAML file plus dotted overrides.

    Overrides look like ``model.frontend.levels=4`` and win over the file.
    """
    cfg = RunConfig()
    if path is not None:
        try:
            raw = yaml.safe_load(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}")
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top level must be a mapping")
        _apply_mapping(cfg, raw)
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
    if cfg.ablation is not None and cfg.ablation not in ABLATION_TAGS:
        raise ConfigError(f"unknown ablation {cfg.ablation!r}; known: {ABLATION_TAGS}")
    fe = cfg.model.frontend
    FrontEndConfig(**asdict(fe))  # re-run its checks on the coerced values
    if cfg.data.synthetic_min_len < fe.min_input_length:
        raise ConfigError(
            f"synthetic_min_len {cfg.data.synthetic_min_len} below the "
            f"front-end minimum {fe.min_input_length}"
        )
    if not 0 < cfg.training.test_frac < 1:
        raise ConfigError("test_frac must lie in (0, 1)")
    if cfg.training.epochs < 1 or cfg.training.batch_size < 1:
        raise ConfigError("epochs and batch_size must be positive")
