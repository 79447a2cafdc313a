"""Band fusion and classification head.

Per-band vectors are stacked channel-wise (high frequency first, then the
approximation), scaled by one learnable weight per band, pushed through one
convolution whose output channels are the classes, averaged over width, and
log-softmax normalized.  That convolution's kernel is ``HEAD_KERNEL`` = 3
wide, so a band vector needs at least 3 entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DimensionError

HEAD_KERNEL = 3


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
    weight: Tensor  # (classes, bands, HEAD_KERNEL)
    bias: Tensor

    @classmethod
    def init(cls, bands, classes, rng):
        scale = (2.0 / (bands * HEAD_KERNEL)) ** 0.5
        return cls(
            weight=ad.parameter(rng.normal(0.0, scale, size=(classes, bands, HEAD_KERNEL))),
            bias=ad.parameter(rng.normal(0.0, 0.01, size=(classes,))),
        )

    def tensors(self):
        return [self.weight, self.bias]


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
    logits = ad.reduce_mean(ad.conv1d(x, head.weight, head.bias), axis=2)
    return ad.log_softmax(logits, axis=1)
