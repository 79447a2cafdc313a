"""Learnable multilevel wavelet decomposition front-end.

Each level cross-correlates the running approximation with a low-pass and a
high-pass filter at stride 2 under circular boundary extension, as one
convolution over the two-filter bank whose two output channels are the
approximation and the detail.  When thresholding is enabled, the level's one
learnable soft thresholding activation squashes both channels at once before
they are split and used further; it is one ``laht`` tape node with a
hand-written backward, not a chain of elementwise nodes.  The high-pass
filter can be tied to the low-pass one through the alternating-flip
(quadrature mirror) construction, which keeps the two-channel bank
orthogonal for any low-pass filter.
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
    def init(cls, sharpness=10.0, bias=0.01):
        raw_bias = float(np.log(np.expm1(bias)))
        return cls(
            raw_alpha=ad.parameter(np.log(sharpness)),
            raw_beta=ad.parameter(np.log(sharpness)),
            raw_bias_pos=ad.parameter(raw_bias),
            raw_bias_neg=ad.parameter(raw_bias),
        )

    def effective(self):
        alpha = ad.neg(ad.exp(self.raw_alpha))
        beta = ad.exp(self.raw_beta)
        bias_pos = ad.softplus(self.raw_bias_pos)
        bias_neg = ad.softplus(self.raw_bias_neg)
        return alpha, beta, bias_pos, bias_neg

    def tensors(self):
        return [self.raw_alpha, self.raw_beta, self.raw_bias_pos, self.raw_bias_neg]


def laht_apply(x, alpha, beta, bias_pos, bias_neg):
    """x * [S(alpha (x + bias_neg)) + S(beta (x - bias_pos))] elementwise.

    One ``laht`` tape node over (x, alpha, beta, bias_pos, bias_neg) that
    keeps x and the two gates s1 and s2.  With d1 = g x s1 (1 - s1) and
    d2 = g x s2 (1 - s2) its backward returns dx = g (s1 + s2) + alpha d1 +
    beta d2, dalpha = sum d1 (x + bias_neg), dbeta = sum d2 (x - bias_pos),
    dbias_pos = -beta sum d2 and dbias_neg = alpha sum d1, each summed down
    to its parameter's shape.
    """
    x, *params = (t if isinstance(t, Tensor) else Tensor(t)
                  for t in (x, alpha, beta, bias_pos, bias_neg))
    xd, a, b, bp, bn = (t.data for t in (x, *params))
    s1, s2 = ad._logistic(a * (xd + bn)), ad._logistic(b * (xd - bp))

    def bwd(g):
        d1, d2 = g * xd * s1 * (1.0 - s1), g * xd * s2 * (1.0 - s2)
        grads = (d1 * (xd + bn), d2 * (xd - bp), -b * d2, a * d1)
        return (g * (s1 + s2) + a * d1 + b * d2,) + tuple(
            ad._unbroadcast(d, p.shape) for d, p in zip(grads, (a, b, bp, bn)))

    return ad.record("laht", xd * (s1 + s2), (x, *params), bwd)


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
            g0 = np.where(np.arange(base.size) % 2 == 0, 1.0, -1.0) * base[::-1]
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


@dataclass
class DecompositionOutput:
    """L detail bands ordered high frequency first, then the approximation."""

    details: list
    approximation: Tensor

    def bands(self):
        return list(self.details) + [self.approximation]


def frontend_forward(signal, cfg, filters, lahts=None):
    """Run the full analysis cascade on (batch, 1, W) input.

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
    details = []
    for level in range(cfg.levels):
        h, g = filters.level_pair(level)
        both = decompose_level(a, h, g)
        if cfg.laht_enabled:
            both = laht_apply(both, *lahts[level].effective())
        a = both[:, :1]
        details.append(both[:, 1:])
    return DecompositionOutput(details=details, approximation=a)
