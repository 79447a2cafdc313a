"""Learnable multilevel wavelet decomposition front-end.

Each level cross-correlates the running approximation with a low-pass and a
high-pass filter at stride 2 under circular boundary extension, as one
convolution over the two-filter bank whose two output channels are the
approximation and the detail.  When thresholding is enabled, the level's one
learnable asymmetric hard thresholding activation (LAHT) squashes both
channels at once before they are split and used further.  It is one ``laht``
tape node whose parents are the level output and the four raw parameters:
the effective alpha = -exp(r_alpha), beta = exp(r_beta) and softplus biases
are computed inside the node, and its backward chains them by hand
(d alpha / d r_alpha = alpha, d beta / d r_beta = beta, d softplus(r) / dr =
S(r)), so no level records a chain of scalar nodes.  The high-pass filter can
be tied to the low-pass one through the alternating-flip (quadrature mirror)
construction, which keeps the two-channel bank orthogonal for any low-pass
filter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DimensionError, InputTooShortError

SHARING_MODES = ("db10_fixed", "single_kernel", "layer_wise", "all_kernel")


def daubechies_lowpass(order):
    """Minimum-phase orthonormal low-pass filter with ``order`` vanishing moments.

    Built in float64 by spectral factorization: each root y of the binomial
    half-band polynomial sum_k C(order - 1 + k, k) y^k is mapped into the unit
    disc through c = 1 - 2y, z = c +- sqrt(c^2 - 1).  The monic polynomial
    with those roots times (1 + x)^order, highest power first, gives the taps,
    normalized so sum(h) = sqrt(2).  Then sum(h^2) = 1 and the double-shift
    products vanish to within 5e-12 up to order 20, the longest filter
    ``FrontEndConfig`` admits; float64 roots lose that accuracy beyond it.
    """
    if order < 1 or int(order) != order:
        raise ConfigError(f"unsupported wavelet order {order!r}")
    order = int(order)
    half_band = [math.comb(order - 1 + k, k) for k in reversed(range(order))]
    c = 1 - 2 * np.roots(half_band).astype(complex)
    disc = np.sqrt(c * c - 1)
    z = np.where(np.abs(c + disc) > 1, c - disc, c + disc)
    h = np.convolve(np.poly(z).real, [math.comb(order, k) for k in range(order + 1)])
    return h * (math.sqrt(2) / h.sum())


def derive_cqf(h):
    """High-pass filter g[n] = (-1)^n h[K-1-n] for an even-length low-pass h.

    Differentiable, so gradients through g flow back into h.  The alternating
    flip makes sum h[n] g[n - 2k] vanish exactly for every shift k.
    """
    h = h if isinstance(h, Tensor) else Tensor(h)
    k = h.data.shape[-1]
    if h.data.ndim != 1:
        raise DimensionError("derive_cqf expects a 1-d filter")
    if k % 2 != 0:
        raise ConfigError(f"quadrature mirror construction needs even length, got {k}")
    signs = Tensor(np.where(np.arange(k) % 2 == 0, 1.0, -1.0))
    return ad.mul(ad.flip(h, 0), signs)


def _extend_odd(a):
    if a.data.shape[2] % 2 == 0:
        return a
    return ad.concat([a, a[:, :, :1]], axis=2)


def decompose_level(a, h, g):
    """One analysis level: stride-2 circular cross-correlation with h and g.

    ``a`` is (batch, 1, W) with W >= 2; odd widths are first extended by one
    circularly.  Returns the (batch, 2, ceil(W / 2)) output of one ``conv1d``
    over the (2, 1, K) bank [h; g]: channel 0 is the approximation and
    channel 1 the detail.
    """
    if a.data.ndim != 3 or a.data.shape[1] != 1:
        raise DimensionError("decompose_level expects (batch, 1, W)")
    if a.data.shape[2] < 2:
        raise InputTooShortError("decompose_level needs at least 2 samples")
    a = _extend_odd(a)
    bank = ad.reshape(ad.stack([h, g], axis=0), (2, 1, h.data.shape[-1]))
    return ad.conv1d(a, bank, stride=2, padding="circular")


@dataclass
class LAHTParams:
    """Reparameterized thresholding parameters.

    The raw scalars are unconstrained; the effective values are
    alpha = -exp(raw_alpha) < 0, beta = exp(raw_beta) > 0 and softplus biases
    > 0, so the sign constraints survive any optimizer trajectory.
    """

    raw_alpha: Tensor
    raw_beta: Tensor
    raw_bias_pos: Tensor
    raw_bias_neg: Tensor

    @classmethod
    def init(cls):
        """alpha = -10, beta = 10 and both biases 0.01."""
        raw_bias = float(np.log(np.expm1(0.01)))
        return cls(
            raw_alpha=ad.parameter(np.log(10.0)),
            raw_beta=ad.parameter(np.log(10.0)),
            raw_bias_pos=ad.parameter(raw_bias),
            raw_bias_neg=ad.parameter(raw_bias),
        )

    def values(self):
        """Effective (alpha, beta, bias_pos, bias_neg) arrays; records nothing.

        Computed with numpy's ``exp`` and ``autodiff._softplus``, so an
        overflowing raw value gives inf with a RuntimeWarning, never an
        OverflowError.
        """
        r_alpha, r_beta, r_pos, r_neg = (t.data for t in self.tensors())
        return -np.exp(r_alpha), np.exp(r_beta), ad._softplus(r_pos), ad._softplus(r_neg)

    def tensors(self):
        return [self.raw_alpha, self.raw_beta, self.raw_bias_pos, self.raw_bias_neg]


def _half_tanh(x, shift, sharpness):
    # t = tanh(sharpness (x + shift) / 2), so S(sharpness (x + shift)) = (1 + t) / 2
    t = np.add(x, shift)
    t *= 0.5 * sharpness
    return np.tanh(t, t)


def laht_apply(x, params):
    """x * [S(alpha (x + bias_neg)) + S(beta (x - bias_pos))] elementwise.

    ``params`` is the level's ``LAHTParams``, whose four raw values must be
    scalars.  One ``laht`` tape node over x and the four raw tensors; it
    keeps x, and its backward repeats the forward's calls for t1, t2.  Each
    gate is written as S(z) = (1 + t) / 2 with t = tanh(z / 2), so S (1 - S)
    = (1 - t^2) / 4.  That is one ``tanh`` pass where the overflow-safe
    two-sided logistic takes nine, and since the gates only scale x, tanh's
    absolute precision is all they need.

    With d1 = g x S1 (1 - S1) and d2 = g x S2 (1 - S2) the backward returns
    dx = g (S1 + S2) + alpha d1 + beta d2 and, through the reparameterization,
    d r_alpha = alpha sum d1 (x + bias_neg), d r_beta = beta sum d2
    (x - bias_pos), d r_pos = -beta S(r_pos) sum d2 and d r_neg = alpha
    S(r_neg) sum d1.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    raws = params.tensors()
    if any(t.data.ndim for t in raws):
        raise DimensionError("LAHT parameters must be scalars")
    a, b, bp, bn = params.values()
    r_pos, r_neg = raws[2].data, raws[3].data
    shape = x.data.shape
    xd = x.data.reshape(-1)  # 1-d, so a 0-d input still takes in-place passes
    t1, t2 = _half_tanh(xd, bn, a), _half_tanh(xd, -bp, b)
    out = t1 + t2
    out *= 0.5
    out += 1.0
    out *= xd

    def bwd(g):
        t1, t2 = _half_tanh(xd, bn, a), _half_tanh(xd, -bp, b)
        g = np.reshape(g, -1)
        gx = g * xd
        gx *= 0.25
        d1, d2 = np.square(t1), np.square(t2)
        for d in (d1, d2):
            np.subtract(1.0, d, d)
            d *= gx
        dx = t1 + t2
        dx *= 0.5
        dx += 1.0
        dx *= g
        d_alpha = np.dot(d1, np.add(xd, bn, out=gx))
        d_beta = np.dot(d2, np.subtract(xd, bp, out=gx))
        sum1, sum2 = d1.sum(), d2.sum()
        d1 *= a
        d2 *= b
        dx += d1
        dx += d2
        return (dx.reshape(shape), d_alpha * a, d_beta * b,
                -b * sum2 * ad._logistic(r_pos), a * sum1 * ad._logistic(r_neg))

    return ad.record("laht", out.reshape(shape), (x, *raws), bwd)


@dataclass
class FrontEndConfig:
    levels: int = 8
    kernel_size: int = 20
    sharing: str = "all_kernel"
    laht_enabled: bool = True

    def __post_init__(self):
        if self.sharing not in SHARING_MODES:
            raise ConfigError(f"model.frontend.sharing is {self.sharing!r}; "
                              f"need one of {', '.join(SHARING_MODES)}")
        # 40 taps is the longest Daubechies filter float64 derives orthonormal
        if self.kernel_size % 2 != 0 or not 2 <= self.kernel_size <= 40:
            raise ConfigError(f"model.frontend.kernel_size is {self.kernel_size}; "
                              f"need an even number in [2, 40]")
        if self.levels < 1:
            raise ConfigError(f"model.frontend.levels is {self.levels}; need >= 1")

    @property
    def min_input_length(self):
        return (2**self.levels) * self.kernel_size


class FrontEndFilters:
    """Per-level (h, g) filter pairs under one of the sharing modes.

    Modes: ``db10_fixed`` keeps the initialization constant; ``single_kernel``
    learns one low-pass filter shared by every level with g tied by the
    quadrature mirror map; ``layer_wise`` learns one low-pass filter per
    level, g tied; ``all_kernel`` learns h and g independently per level.
    Tied g filters are re-derived on every forward pass so filter updates
    propagate immediately.
    """

    def __init__(self, cfg):
        base = daubechies_lowpass(cfg.kernel_size // 2)
        self.mode = cfg.sharing
        self._h = []
        self._g = []
        if self.mode == "db10_fixed":
            self._h = [Tensor(base)]
        elif self.mode == "single_kernel":
            self._h = [ad.parameter(base)]
        elif self.mode == "layer_wise":
            self._h = [ad.parameter(base.copy()) for _ in range(cfg.levels)]
        else:  # all_kernel
            g0 = derive_cqf(base).data
            self._h = [ad.parameter(base.copy()) for _ in range(cfg.levels)]
            self._g = [ad.parameter(g0.copy()) for _ in range(cfg.levels)]

    def level_pair(self, level):
        if self.mode == "all_kernel":
            return self._h[level], self._g[level]
        h = self._h[0 if self.mode in ("db10_fixed", "single_kernel") else level]
        return h, derive_cqf(h)

    def parameters(self):
        if self.mode == "db10_fixed":
            return []
        return list(self._h) + list(self._g)


def frontend_forward(signal, cfg, filters, lahts=None):
    """Run the full analysis cascade on (batch, 1, W) input.

    Returns the L detail bands, high frequency first, then the approximation.
    Recursion always continues on the approximation.  When thresholding is
    enabled, each level's one activation is applied to the level's
    two-channel output before it is split, so the details and the final
    approximation are all thresholded.
    """
    if signal.data.ndim != 3 or signal.data.shape[1] != 1:
        raise DimensionError("frontend_forward expects (batch, 1, W)")
    width = signal.data.shape[2]
    if width < cfg.min_input_length:
        raise InputTooShortError(
            f"input width {width} below the {cfg.levels}-level minimum "
            f"{cfg.min_input_length}"
        )
    if cfg.laht_enabled and lahts is None:
        raise ConfigError("laht_enabled requires per-level LAHT parameters")
    a = signal
    bands = []
    for level in range(cfg.levels):
        h, g = filters.level_pair(level)
        both = decompose_level(a, h, g)
        if cfg.laht_enabled:
            both = laht_apply(both, lahts[level])
        a = both[:, :1]
        bands.append(both[:, 1:])
    return bands + [a]
