"""Full network: wavelet front-end, one shared band pipeline, fusion head.

One forward pass maps a raw waveform (one utterance, any admissible length)
to log class probabilities.  Every band goes through the same conv stack,
spatial attention, BiGRU stack and temporal attention.  Parameters live in a flat name -> tensor
mapping so the optimizer and the checkpoint format stay trivial.
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
    conv_channels: int = 16
    conv_kernel: int = 3
    dilations: tuple = (1, 2, 4)
    # strides > 1 in the first blocks shrink the sequences the recurrent
    # encoder has to scan; paddings keep the short low-frequency bands alive
    conv_strides: tuple = (2, 2, 1)
    conv_paddings: tuple = (1, 2, 4)
    gru_layers: int = 6
    gru_hidden: int = 16
    dropout: float = 0.2
    bigru_enabled: bool = True
    head_kernel: int = 3
    classes: int = 4


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
        self.pipeline = BandPipelineParams.init(
            cfg.conv_channels, cfg.conv_kernel, cfg.dilations, rng,
            strides=cfg.conv_strides, paddings=cfg.conv_paddings,
        )
        if cfg.bigru_enabled:
            self.stack = BiGRUStack.init(
                cfg.gru_layers, cfg.conv_channels, cfg.gru_hidden, cfg.dropout, rng
            )
            self.temporal = TemporalAttentionParams.init(2 * cfg.gru_hidden, rng)
        else:
            self.stack = None
            self.temporal = None
        self.channel_weights = ChannelWeights.init(bands)
        self.head = HeadParams.init(bands, cfg.classes, cfg.head_kernel, rng)
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

    def _band_vector(self, band, rng):
        sequence, summary = band_features(band, self.pipeline.blocks, self.pipeline.attention)
        if self.stack is None:
            return summary
        states = bigru_forward(ad.transpose(sequence, (0, 2, 1)), self.stack, rng)
        return temporal_attention(states, self.temporal)

    def forward(self, samples, training=False, dropout_seed=None):
        """Log class probabilities (1, classes) for one waveform.

        When ``training``, ``dropout_seed`` (int, Generator or None) seeds one
        generator that draws every band's dropout masks in turn.
        """
        samples = np.asarray(samples, dtype=np.float64).reshape(-1)
        x = Tensor(samples.reshape(1, 1, -1))
        decomp = frontend_forward(x, self.cfg.frontend, self.filters, self.lahts)
        # a Generator passes through as is
        rng = np.random.default_rng(dropout_seed) if training else None
        vectors = [self._band_vector(band, rng) for band in decomp.bands()]
        fused = fuse_bands(vectors)
        weighted = channel_weighting(fused, self.channel_weights)
        return classify(weighted, self.head)
