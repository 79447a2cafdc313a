"""Run configuration: defaults < YAML file < ablation tag < dotted overrides.

``RunConfig.model`` is exactly the network a run builds: an ablation tag is
resolved into the model fields when the config is loaded, and ``train``
writes its dataset's class count into ``model.classes``.  That field is
derived, so a file or override that sets it is a ConfigError; a checkpoint's
``run`` entry records it, and ``from_mapping`` reads it back.  The band
pipeline's conv geometry is fixed in ``features`` and is not a setting.

Every number a run reads declares its domain next to its default, as
``field(metadata={"domain": ...})`` in its section here, in
``model.ModelConfig`` or in ``wavelet.FrontEndConfig``: an interval such as
``"(0, inf)"`` or ``"[0, 1)"``, or a tuple of the admitted values.  An open
end at ``inf`` admits no infinity, and no interval admits NaN.  Besides the
domains a run needs ``data.synthetic_min_len`` at least the front end's
``min_input_length``, ``data.synthetic_max_len`` at least
``data.synthetic_min_len``, and a band vector at least ``fusion.HEAD_KERNEL``
wide.  A loaded config meets all of these or is a ConfigError.  The checks
live in ``model``, where ``Network`` runs the model's share of them on any
``ModelConfig`` it is given.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import yaml

from .data import default_synthetic_spec
from .errors import ConfigError
from .model import ModelConfig, apply_ablation, check_band_width, check_domains


@dataclass
class TrainingSection:
    lr: float = field(default=2e-3, metadata={"domain": "(0, inf)"})
    beta1: float = field(default=0.9, metadata={"domain": "[0, 1)"})
    beta2: float = field(default=0.999, metadata={"domain": "[0, 1)"})
    eps: float = field(default=1e-8, metadata={"domain": "(0, inf)"})
    epochs: int = field(default=30, metadata={"domain": "[1, inf)"})
    batch_size: int = field(default=16, metadata={"domain": "[1, inf)"})
    # numpy's SeedSequence takes no negative
    seed: int = field(default=0, metadata={"domain": "[0, inf)"})
    # the test share, then the validation share of the rest
    test_frac: float = field(default=0.1, metadata={"domain": "(0, 1)"})
    gamma: float = field(default=2.0, metadata={"domain": "[0, inf)"})
    lam: float = field(default=1e-4, metadata={"domain": "[0, inf)"})


@dataclass
class DataSection:
    manifest: str | None = None
    root: str | None = None
    synthetic_n_per_class: int = field(default=25, metadata={"domain": "[1, inf)"})
    synthetic_seed: int = field(default=0, metadata={"domain": "[0, inf)"})
    synthetic_min_len: int = field(default=8000, metadata={"domain": "[1, inf)"})
    synthetic_max_len: int = field(default=12800, metadata={"domain": "[1, inf)"})


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
        return asdict(self)


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
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise ValueError(f"{value!r} is not an integer")
        return int(value)
    if isinstance(template, float):
        if isinstance(value, bool):
            raise ValueError(f"{value!r} is not a number")
        return float(value)
    if value is not None and not isinstance(value, str):  # str and str | None fields
        raise ValueError(f"{value!r} is not a string")
    return value


_DERIVED = ("model.classes",)  # set by train from its dataset, never by a user


def _apply_mapping(obj, mapping, path="", derived=()):
    names = {f.name for f in fields(obj)}
    for key, value in mapping.items():
        where = f"{path}.{key}" if path else str(key)
        if key not in names:
            raise ConfigError(f"unknown config key {where!r}")
        if where in derived:
            raise ConfigError(f"{where!r} is derived from the dataset and cannot be set")
        current = getattr(obj, key)
        if hasattr(current, "__dataclass_fields__"):
            if not isinstance(value, dict):
                raise ConfigError(f"{where!r} must be a mapping")
            _apply_mapping(current, value, where, derived)
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
        except (yaml.YAMLError, RecursionError) as exc:
            raise ConfigError(f"cannot parse {path}: {exc}")
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top level must be a mapping")
        _apply_mapping(cfg, raw, derived=_DERIVED)
    if ablation is not None:
        cfg.model = apply_ablation(cfg.model, ablation)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key.path=value")
        dotted, _, text = item.partition("=")
        try:
            value = yaml.safe_load(text)
        except (yaml.YAMLError, RecursionError) as exc:
            raise ConfigError(f"cannot parse the value of override {item!r}: {exc}")
        mapping = {}
        cursor = mapping
        keys = dotted.strip().split(".")
        for key in keys[:-1]:
            cursor[key] = {}
            cursor = cursor[key]
        cursor[keys[-1]] = value
        _apply_mapping(cfg, mapping, derived=_DERIVED)
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
    check_domains(cfg)
    m, data = cfg.model, cfg.data
    if data.synthetic_min_len < m.frontend.min_input_length:
        raise ConfigError(f"data.synthetic_min_len is {data.synthetic_min_len}; need it >= "
                          f"the front end's min_input_length {m.frontend.min_input_length}")
    if data.synthetic_max_len < data.synthetic_min_len:
        raise ConfigError(f"data.synthetic_max_len is {data.synthetic_max_len}; need it >= "
                          f"data.synthetic_min_len {data.synthetic_min_len}")
    check_band_width(m)
