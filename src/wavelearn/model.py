"""Full network: wavelet front-end, one shared band pipeline, fusion head.

One forward pass maps a raw waveform (one utterance, any admissible length)
to log class probabilities.  ``Network.encode`` takes one band at a time
through the shared conv stack and spatial attention (their fixed geometry is
stated in ``features``), then the BiGRU stack and temporal attention, so each
band is encoded as soon as its features exist.  Each parameter is named by
its attribute path from the network (``filters.h.3``, ``lahts.2.raw_beta``,
``stack.layers.5.bwd.w_hh``), in one flat name -> tensor mapping that the
optimizer and the checkpoint format share.

``Network`` checks the model config it is given: every field in its declared
domain (see ``config``) and a band vector at least ``fusion.HEAD_KERNEL``
wide, so a hand-built ``ModelConfig`` meets the same rules as a loaded one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ParseError
from .features import BandPipelineParams, band_features
from .fusion import (HEAD_KERNEL, ChannelWeights, HeadParams, channel_weighting, classify,
                     fuse_bands)
from .recurrent import BiGRUStack, TemporalAttentionParams, bigru_forward, temporal_attention
from .wavelet import FrontEndConfig, FrontEndFilters, LAHTParams, frontend_forward

_ABLATION_SHARING = {
    "db10": "db10_fixed",
    "db10+laht": "db10_fixed",
    "1kernel": "single_kernel",
    "1kernel-layerwise": "layer_wise",
    "1kernel+laht": "single_kernel",
    "1kernel-layerwise+laht": "layer_wise",
    "allkernel+laht": "all_kernel",
    "allkernel+laht-nogru": "all_kernel",
}
ABLATION_TAGS = tuple(_ABLATION_SHARING)


@dataclass
class ModelConfig:
    frontend: FrontEndConfig = field(default_factory=FrontEndConfig)
    conv_channels: int = field(default=16, metadata={"domain": "[1, inf)"})
    gru_layers: int = field(default=6, metadata={"domain": "[1, inf)"})
    gru_hidden: int = field(default=16, metadata={"domain": "[1, inf)"})
    dropout: float = field(default=0.2, metadata={"domain": "[0, 1)"})
    bigru_enabled: bool = True
    classes: int = field(default=4, metadata={"domain": "[1, inf)"})


def apply_ablation(cfg, tag):
    """``cfg`` with the sharing / thresholding / encoder flags of an ablation tag."""
    if tag not in ABLATION_TAGS:
        raise ConfigError(f"unknown ablation tag {tag!r}; known: {ABLATION_TAGS}")
    frontend = replace(
        cfg.frontend,
        sharing=_ABLATION_SHARING[tag],
        laht_enabled="laht" in tag,
    )
    return replace(cfg, frontend=frontend, bigru_enabled="nogru" not in tag)


def _leaves(section, prefix=""):
    """(dotted key, value, declared domain or None) of every setting under ``section``."""
    for f in fields(section):
        value = getattr(section, f.name)
        if is_dataclass(value):
            yield from _leaves(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, value, f.metadata.get("domain")


def _contains(domain, value):
    if not isinstance(domain, str):
        return value in domain
    lo, hi = (float(end.strip("[]() ")) for end in domain.split(","))
    return ((lo <= value if domain[0] == "[" else lo < value)
            and (value <= hi if domain[-1] == "]" else value < hi))


def check_domains(section, prefix=""):
    """ConfigError for the first setting under ``section`` outside its declared domain."""
    for key, value, domain in _leaves(section, prefix):
        if domain is not None and not _contains(domain, value):
            shown = domain if isinstance(domain, str) else "{" + ", ".join(map(str, domain)) + "}"
            raise ConfigError(f"{key} is {value!r}; need {key} in {shown}")


def check_band_width(cfg):
    """ConfigError unless ``cfg``'s band vectors are at least ``HEAD_KERNEL`` wide."""
    key, width = (("gru_hidden", 2 * cfg.gru_hidden) if cfg.bigru_enabled
                  else ("conv_channels", cfg.conv_channels))
    if width < HEAD_KERNEL:
        raise ConfigError(f"model.{key} is {getattr(cfg, key)}; need it giving a band vector "
                          f">= {HEAD_KERNEL} wide for the head's kernel")


def named_parameters(obj, path=""):
    """{attribute path: Tensor} of every ``requires_grad`` tensor under ``obj``.

    The walk goes through attributes in assignment order and list items in
    index order, so ``filters.h.3`` is ``obj.filters.h[3]``.
    """
    if isinstance(obj, Tensor):
        return {path: obj} if obj.requires_grad else {}
    if isinstance(obj, list):
        items = enumerate(obj)
    elif hasattr(obj, "__dict__"):
        items = vars(obj).items()
    else:
        return {}
    found = {}
    for key, value in items:
        found.update(named_parameters(value, f"{path}.{key}" if path else str(key)))
    return found


class Network:
    """Parameter container plus the forward pass; a config it cannot build is a ConfigError."""

    def __init__(self, cfg, seed=0):
        check_domains(cfg, "model.")
        check_band_width(cfg)
        self.cfg = cfg
        fe = cfg.frontend
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x5EED)))
        bands = fe.levels + 1
        try:
            self.filters = FrontEndFilters(fe)
            self.lahts = (
                [LAHTParams.init() for _ in range(fe.levels)] if fe.laht_enabled else None
            )
            self.pipeline = BandPipelineParams.init(cfg.conv_channels, rng)
            if cfg.bigru_enabled:
                self.stack = BiGRUStack.init(
                    cfg.gru_layers, cfg.conv_channels, cfg.gru_hidden, cfg.dropout, rng
                )
                self.temporal = TemporalAttentionParams.init(2 * cfg.gru_hidden, rng)
            else:
                self.stack = None
                self.temporal = None
            self.channel_weights = ChannelWeights.init(bands)
            self.head = HeadParams.init(bands, cfg.classes, rng)
        except MemoryError as exc:
            raise ConfigError(f"the model describes a network too large to build: {exc}") from exc
        self._params = named_parameters(self)

    def parameters(self):
        return self._params

    def parameter_count(self):
        return sum(p.data.size for p in self._params.values())

    def load_state(self, state):
        """Copy saved parameters in; a state this network cannot hold is a ParseError.

        Every value is checked before any is copied; finiteness is tested once
        over all of them, since one test per parameter costs several times more.
        """
        for name in state:
            if name not in self._params:
                raise ParseError(f"checkpoint parameter {name!r} is not in this network")
        values = {}
        for name, p in self._params.items():
            if name not in state:
                raise ParseError(f"checkpoint is missing parameter {name!r}")
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != p.data.shape:
                raise ParseError(
                    f"checkpoint shape {value.shape} != {p.data.shape} for {name!r}"
                )
            values[name] = value
        if not np.isfinite(np.concatenate(list(values.values()), axis=None)).all():
            bad = next(name for name, v in values.items() if not np.isfinite(v).all())
            raise ParseError(f"checkpoint parameter {bad!r} holds a non-finite value")
        for name, value in values.items():
            self._params[name].data = value.copy()

    def state(self):
        return {name: p.data.copy() for name, p in self._params.items()}

    def encode(self, band, rng=None):
        """The (1, D) vector of one (1, 1, W) band.

        The band's conv stack and spatial attention give a (1, C, T) map.  The
        BiGRU stack scans it as a (1, T, C) sequence, drawing dropout from
        ``rng`` layer by layer, and temporal attention collapses the states.
        Under nogru the vector is the map's width sum.
        """
        weighted = band_features(band, self.pipeline)
        if self.stack is None:
            return ad.reduce_sum(weighted, axis=2)
        return temporal_attention(
            bigru_forward(ad.transpose(weighted, (0, 2, 1)), self.stack, rng), self.temporal)

    def forward(self, samples, training=False, dropout_seed=None):
        """Log class probabilities (1, classes) for one waveform.

        When ``training``, ``dropout_seed`` (int, Generator or None) seeds one
        generator that draws every band's dropout masks in turn.
        """
        samples = np.asarray(samples, dtype=np.float64).reshape(-1)
        bands = frontend_forward(Tensor(samples.reshape(1, 1, -1)), self.cfg.frontend,
                                 self.filters, self.lahts)
        # a Generator passes through as is
        rng = np.random.default_rng(dropout_seed) if training else None
        vectors = [self.encode(band, rng) for band in bands]
        return classify(channel_weighting(fuse_bands(vectors), self.channel_weights), self.head)
