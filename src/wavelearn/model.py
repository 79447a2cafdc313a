"""Full network: wavelet front-end, one shared band pipeline, fusion head.

One forward pass maps a raw waveform (one utterance, any admissible length)
to log class probabilities.  ``Network.encode`` takes one band at a time
through the shared conv stack and spatial attention (their fixed geometry is
stated in ``features``), then the BiGRU stack and temporal attention, so each
band is encoded as soon as its features exist.  Parameters live in a flat
name -> tensor mapping so the optimizer and the checkpoint format stay trivial.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ParseError
from .features import BandPipelineParams, band_features
from .fusion import ChannelWeights, HeadParams, channel_weighting, classify, fuse_bands
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


class Network:
    """Parameter container plus the forward pass."""

    def __init__(self, cfg, seed=0):
        self.cfg = cfg
        fe = cfg.frontend
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x5EED)))
        self.filters = FrontEndFilters(fe)
        self.lahts = (
            [LAHTParams.init() for _ in range(fe.levels)] if fe.laht_enabled else None
        )
        bands = fe.levels + 1
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
        self._params = self._collect()

    def _collect(self):
        params = {}

        def put(prefix, tensors):
            for i, t in enumerate(tensors):
                params[f"{prefix}.{i}"] = t

        for i, t in enumerate(self.filters.parameters()):
            params[f"frontend.filter.{i}"] = t
        if self.lahts is not None:
            for level, p in enumerate(self.lahts):
                put(f"frontend.laht.{level}", p.tensors())
        put("pipeline.0", self.pipeline.tensors())
        if self.stack is not None:
            put("gru.0", self.stack.parameters())
            put("temporal.0", self.temporal.tensors())
        put("fusion.weights", self.channel_weights.tensors())
        put("head", self.head.tensors())
        return params

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
