"""Per-band local feature extraction.

A short stack of dilated convolution blocks (conv, then a leaky activation
with slope 0.01) followed by width-wise attention that scores every position
with a kernel-size-1 convolution over the feature map.  The map's global
(width-mean) context is not added to it: its score term is the same at every
position, a constant shift that the softmax over width cancels.  No pooling
anywhere: a block maps width W to (W + 2 padding - dilation (kernel - 1) - 1)
// stride + 1, so with the default paddings equal to the dilations and kernel
3, a stride-1 block keeps width W and a stride-2 block gives ceil(W / 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DimensionError


@dataclass
class ConvBlockParams:
    weight: Tensor
    bias: Tensor
    stride: int = 1
    dilation: int = 1
    padding: int = 0

    @classmethod
    def init(cls, in_channels, out_channels, kernel, rng, dilation=1, stride=1, padding=0):
        scale = (2.0 / (in_channels * kernel)) ** 0.5
        return cls(
            weight=ad.parameter(rng.normal(0.0, scale, size=(out_channels, in_channels, kernel))),
            bias=ad.parameter(rng.normal(0.0, 0.01, size=(out_channels,))),
            stride=stride,
            dilation=dilation,
            padding=padding,
        )

    def tensors(self):
        return [self.weight, self.bias]


def conv_block(x, p):
    """leaky_relu(conv1d(x)) with the block's parameters."""
    return ad.leaky_relu(ad.conv1d(x, p.weight, p.bias, stride=p.stride,
                                   dilation=p.dilation, padding=p.padding))


@dataclass
class SpatialAttentionParams:
    # (1, C, 1) kernel-size-1 convolution; a softmax over width ignores a
    # constant shift, so the score has no bias
    score_weight: Tensor

    @classmethod
    def init(cls, channels, rng):
        scale = (1.0 / channels) ** 0.5
        return cls(score_weight=ad.parameter(rng.normal(0.0, scale, size=(1, channels, 1))))

    def tensors(self):
        return [self.score_weight]


class AttentionResult(NamedTuple):
    summary: Tensor  # (batch, C) width-summed weighted map
    weighted: Tensor  # (batch, C, W) attention-weighted feature map
    weights: Tensor  # (batch, 1, W) probability distribution over width


def spatial_attention(l, p):
    """Width attention over a feature map.

    The score map is a width-1 convolution of the map, softmax-normalized over
    width.  Scoring map + width-mean context would give the same weights: the
    context adds one constant to every position's score, which the softmax
    cancels.  Returns the weighted map, the weights, and their width sum.
    """
    if p.score_weight.data.shape[2] != 1:
        raise DimensionError("spatial attention kernel width must be 1")
    scores = ad.conv1d(l, p.score_weight)
    weights = ad.softmax(scores, axis=2)
    weighted = ad.mul(weights, l)
    summary = ad.reduce_sum(weighted, axis=2)
    return AttentionResult(summary=summary, weighted=weighted, weights=weights)


@dataclass
class BandPipelineParams:
    """The shared conv stack plus attention applied to every frequency band."""

    blocks: list
    attention: SpatialAttentionParams

    @classmethod
    def init(cls, channels, kernel, dilations, rng, strides=None, paddings=None):
        strides = strides or (1,) * len(dilations)
        paddings = paddings or (0,) * len(dilations)
        blocks = []
        c_in = 1
        for d, s, p in zip(dilations, strides, paddings):
            blocks.append(
                ConvBlockParams.init(c_in, channels, kernel, rng, dilation=d, stride=s, padding=p)
            )
            c_in = channels
        return cls(blocks=blocks, attention=SpatialAttentionParams.init(channels, rng))

    def tensors(self):
        out = []
        for b in self.blocks:
            out.extend(b.tensors())
        out.extend(self.attention.tensors())
        return out


def band_features(band, blocks, attention):
    """Conv stack then spatial attention for one (batch, 1, W) band.

    Returns the attention-weighted feature sequence that feeds the sequence
    encoder, and the width-summed summary vector.
    """
    x = band
    for p in blocks:
        x = conv_block(x, p)
    result = spatial_attention(x, attention)
    return result.weighted, result.summary
