"""Band fusion and classification head.

Per-band vectors are stacked channel-wise (high frequency first, then the
approximation), scaled by one learnable weight per band, pushed through a
final conv block whose output channels match the class count, averaged over
width, and log-softmax normalized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DimensionError
from .features import ConvBlockParams, conv_block


@dataclass
class ChannelWeights:
    w: Tensor  # one scalar per band, ones at initialization

    @classmethod
    def init(cls, bands):
        return cls(w=ad.parameter(np.ones(bands)))

    def tensors(self):
        return [self.w]


@dataclass
class HeadParams:
    class_conv: ConvBlockParams

    @classmethod
    def init(cls, bands, classes, kernel, rng):
        return cls(class_conv=ConvBlockParams.init(bands, classes, kernel, rng))

    def tensors(self):
        return self.class_conv.tensors()


def fuse_bands(vectors):
    """Stack per-band (batch, D) vectors into (batch, bands, D)."""
    if not vectors:
        raise DimensionError("fuse_bands needs at least one band vector")
    first = vectors[0].data.shape
    for v in vectors:
        if v.data.ndim != 2 or v.data.shape != first:
            raise DimensionError(
                f"band vectors must share (batch, D); got {v.data.shape} vs {first}"
            )
    return ad.stack(vectors, axis=1)


def channel_weighting(x, cw):
    """Scale band c of (batch, bands, D) by the learnable weight w[c]."""
    bands = x.data.shape[1]
    if cw.w.data.shape != (bands,):
        raise DimensionError(
            f"channel weights extent {cw.w.data.shape} != band count {bands}"
        )
    return ad.mul(x, ad.reshape(cw.w, (1, bands, 1)))


def classify(x, head):
    """Log class probabilities for a fused (batch, bands, D) representation."""
    maps = conv_block(x, head.class_conv)
    pooled = ad.reduce_mean(maps, axis=2)
    return ad.log_softmax(pooled, axis=1)
