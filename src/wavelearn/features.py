"""Per-band local feature extraction, one band at a time: ``Network.encode``
encodes each band as soon as its features exist.

A fixed stack of three dilated convolution blocks (conv, then a leaky
activation with slope 0.01), then width-wise attention that scores every
position with a kernel-size-1 convolution over the feature map.  The map's
global (width-mean) context is not added: its score term is the same at every
position, a constant shift that the softmax over width cancels.

The geometry is fixed here: kernel 3 and (dilation, stride, padding) =
(1, 4, 1), (1, 1, 1), (4, 1, 4).  Each padding equals its dilation, so a band
of W >= 1 samples leaves ceil(W / 4) >= 1 positions.  The strides shorten the
sequences the recurrent encoder scans; nothing pools.

This is the stack (1, 2, 1), (2, 2, 2), (4, 1, 4) without its dead half: its
second block reads the first block's output only at even positions, with
zeros past either end.  Those are the first block at stride 4, which a
dilation-1, padding-1 block reads with the same zero edges: the same function
at half the first block's columns.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import autodiff as ad
from .autodiff import Tensor

KERNEL = 3
BLOCKS = ((1, 4, 1), (1, 1, 1), (4, 1, 4))  # (dilation, stride, padding)


@dataclass
class ConvBlockParams:
    weight: Tensor
    bias: Tensor
    stride: int = 1
    dilation: int = 1
    padding: int = 0

    @classmethod
    def init(cls, in_channels, out_channels, rng, dilation, stride, padding):
        scale = (2.0 / (in_channels * KERNEL)) ** 0.5
        return cls(
            weight=ad.parameter(rng.normal(0.0, scale, size=(out_channels, in_channels, KERNEL))),
            bias=ad.parameter(rng.normal(0.0, 0.01, size=(out_channels,))),
            stride=stride, dilation=dilation, padding=padding,
        )


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


def spatial_attention(l, p):
    """Width attention over a feature map: the attention-weighted map.

    The score map is a width-1 convolution of the map, softmax-normalized over
    width.  Scoring map + width-mean context would give the same weights: the
    context adds one constant to every position's score, which the softmax
    cancels.
    """
    weights = ad.softmax(ad.conv1d(l, p.score_weight), axis=2)
    return ad.mul(weights, l)


@dataclass
class BandPipelineParams:
    """The shared conv stack plus attention applied to every frequency band."""

    blocks: list
    attention: SpatialAttentionParams

    @classmethod
    def init(cls, channels, rng):
        c_in = [1] + [channels] * (len(BLOCKS) - 1)
        blocks = [ConvBlockParams.init(c, channels, rng, *geometry)
                  for c, geometry in zip(c_in, BLOCKS)]
        return cls(blocks=blocks, attention=SpatialAttentionParams.init(channels, rng))


def band_features(band, pipeline):
    """The attention-weighted (batch, C, ceil(W / 4)) map of one (batch, 1, W) band."""
    x = band
    for p in pipeline.blocks:
        x = conv_block(x, p)
    return spatial_attention(x, pipeline.attention)
