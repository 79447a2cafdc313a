import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from wavelearn import autodiff as ad
from wavelearn.autodiff import Tape, Tensor, backward
from wavelearn.errors import ConfigError, DimensionError, InputTooShortError
from wavelearn.wavelet import (
    SHARING_MODES,
    FrontEndConfig,
    FrontEndFilters,
    LAHTParams,
    daubechies_lowpass,
    decompose_level,
    derive_cqf,
    frontend_forward,
    laht_apply,
)

import reference
from gradcheck import check_gradients

# Standard orthonormal 20-tap table (10 vanishing moments), as printed in the
# classical wavelet literature; Sum h = sqrt(2), sum h^2 = 1.
DB10_REFERENCE = np.array([
    0.026670057901, 0.188176800078, 0.527201188932, 0.688459039454,
    0.281172343661, -0.249846424327, -0.195946274377, 0.127369340336,
    0.093057364604, -0.071394147166, -0.029457536822, 0.033212674059,
    0.003606553567, -0.010733175483, 0.001395351747, 0.001992405295,
    -0.000685856695, -0.000116466855, 0.000093588670, -0.000013264203,
])

HAAR = np.array([1.0, 1.0]) / np.sqrt(2.0)


def _channels(both):
    """The approximation and detail channels of a ``decompose_level`` output."""
    return both[:, :1], both[:, 1:]


def _reconstruct(bands, pairs):
    """Inverse cascade for orthonormal filters, circular boundaries, even widths.

    ``bands`` are the detail arrays, high frequency first, then the
    approximation; ``pairs`` holds one (h, g) array pair per level.  Each level
    upsamples by 2 and applies the adjoint circular correlation.
    """
    *details, a = [np.asarray(b).reshape(-1) for b in bands]
    assert len(details) == len(pairs)
    for d, (h, g) in zip(reversed(details), reversed(pairs)):
        out = np.zeros(2 * a.size)
        pos = 2 * np.arange(a.size)
        for s in range(h.size):
            out[(pos + s) % out.size] += a * h[s] + d * g[s]
        a = out
    return a


def test_db10_normalization():
    h = daubechies_lowpass(10)
    assert h.shape == (20,)
    assert abs(h.sum() - np.sqrt(2)) < 1e-10
    assert abs((h**2).sum() - 1.0) < 1e-10


def test_db10_double_shift_orthogonality():
    h = daubechies_lowpass(10)
    for k in range(1, 10):
        assert abs(np.dot(h[: -2 * k], h[2 * k :])) < 1e-10


def test_db10_matches_published_table():
    assert np.abs(daubechies_lowpass(10) - DB10_REFERENCE).max() < 1e-8


@pytest.mark.parametrize("order", range(1, 21))  # every order FrontEndConfig admits
def test_daubechies_filter_is_orthonormal_with_order_vanishing_moments(order):
    h = daubechies_lowpass(order)
    k = 2 * order
    assert h.shape == (k,)
    assert abs(h.sum() - np.sqrt(2)) < 1e-10
    assert abs(np.dot(h, h) - 1.0) < 1e-10
    for shift in range(1, order):
        assert abs(np.dot(h[: -2 * shift], h[2 * shift :])) < 1e-10
    g = derive_cqf(Tensor(h)).data
    n = np.arange(k) / k  # scaled so the moment terms stay below 1
    for p in range(order):
        assert abs(np.dot(g, n**p)) < 1e-10


def test_db2_matches_its_closed_form():
    r3 = np.sqrt(3.0)
    closed = np.array([1 + r3, 3 + r3, 3 - r3, 1 - r3]) / (4 * np.sqrt(2.0))
    assert np.abs(daubechies_lowpass(2) - closed).max() < 1e-15


def test_unsupported_order_rejected():
    with pytest.raises(ConfigError):
        daubechies_lowpass(0)
    with pytest.raises(ConfigError):
        daubechies_lowpass(2.5)


def test_cqf_haar_example():
    g = derive_cqf(Tensor(np.array([0.7071, 0.7071])))
    assert_allclose(g.data, [0.7071, -0.7071])
    assert abs(np.dot([0.7071, 0.7071], g.data)) < 1e-12


def test_cqf_single_tap_example():
    g = derive_cqf(Tensor(np.array([1.0, 0.0, 0.0, 0.0])))
    assert_allclose(g.data, [0.0, 0.0, 0.0, -1.0])


def test_cqf_db10_vanishing_sum():
    g = derive_cqf(Tensor(daubechies_lowpass(10)))
    assert abs(g.data.sum()) < 1e-10


def test_cqf_odd_length_rejected():
    with pytest.raises(ConfigError):
        derive_cqf(Tensor(np.ones(5)))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**31),
)
def test_cqf_orthogonality_random_filters(half, seed):
    # sum_n h[n] g[n - 2k] vanishes for every shift, for any even-length h
    h = np.random.default_rng(seed).normal(size=2 * half)
    g = derive_cqf(Tensor(h)).data
    k_taps = len(h)
    for shift in range(-k_taps // 2, k_taps // 2 + 1):
        total = sum(
            h[n] * g[n - 2 * shift]
            for n in range(k_taps)
            if 0 <= n - 2 * shift < k_taps
        )
        assert abs(total) < 1e-12


def test_decompose_constant_signal():
    a = Tensor(np.ones((1, 1, 4)))
    h, g = Tensor(HAAR), derive_cqf(Tensor(HAAR))
    a_next, d_next = _channels(decompose_level(a, h, g))
    assert_allclose(a_next.data, np.full((1, 1, 2), np.sqrt(2)), atol=1e-12)
    assert_allclose(d_next.data, np.zeros((1, 1, 2)), atol=1e-12)


def test_decompose_alternating_signal():
    a = Tensor(np.array([[[1.0, -1.0, 1.0, -1.0]]]))
    h, g = Tensor(HAAR), derive_cqf(Tensor(HAAR))
    a_next, d_next = _channels(decompose_level(a, h, g))
    assert_allclose(a_next.data, np.zeros((1, 1, 2)), atol=1e-12)
    assert_allclose(np.abs(d_next.data), np.full((1, 1, 2), np.sqrt(2)), atol=1e-12)


def test_decompose_energy_partition_random_orthonormal():
    rng = np.random.default_rng(5)
    h = daubechies_lowpass(3)  # any orthonormal pair works
    g = derive_cqf(Tensor(h))
    x = rng.normal(size=(1, 1, 64))
    a_next, d_next = _channels(decompose_level(Tensor(x), Tensor(h), g))
    lhs = (x**2).sum()
    rhs = (a_next.data**2).sum() + (d_next.data**2).sum()
    assert abs(lhs - rhs) < 1e-8


def test_decompose_too_short():
    with pytest.raises(InputTooShortError):
        decompose_level(Tensor(np.ones((1, 1, 1))), Tensor(HAAR), Tensor(HAAR))


def test_decompose_odd_width_extends_circularly():
    a = Tensor(np.array([[[1.0, 2.0, 3.0]]]))
    h, g = Tensor(HAAR), derive_cqf(Tensor(HAAR))
    a_next, _ = _channels(decompose_level(a, h, g))
    assert a_next.data.shape == (1, 1, 2)
    assert_allclose(a_next.data[0, 0], [(1 + 2) / np.sqrt(2), (3 + 1) / np.sqrt(2)])


@pytest.mark.parametrize("mode", SHARING_MODES)
def test_decompose_level_equals_one_conv_per_filter(mode):
    rng = np.random.default_rng(8)
    cfg = FrontEndConfig(levels=1, kernel_size=6, sharing=mode, laht_enabled=False)
    filters = FrontEndFilters(cfg)
    for p in filters.parameters():
        p.data = rng.normal(size=p.data.shape) * 0.5
    x = rng.normal(size=(2, 1, 15))
    probes = [Tensor(rng.normal(size=(2, 1, 8))) for _ in range(2)]

    def one_conv_per_filter(a, h, g):
        even = ad.concat([a, a[:, :, :1]], axis=2)  # the circular odd-width extension
        return [ad.conv1d(even, ad.reshape(f, (1, 1, 6)), stride=2, padding="circular")
                for f in (h, g)]

    def two_channel_level(a, h, g):
        return _channels(decompose_level(a, h, g))

    results = []
    for level_fn in (two_channel_level, one_conv_per_filter):
        a = Tensor(x, requires_grad=True)
        for p in filters.parameters():
            p.grad = None
        with Tape():
            outs = level_fn(a, *filters.level_pair(0))
            backward(ad.add(*[ad.reduce_sum(ad.mul(o, q)) for o, q in zip(outs, probes)]))
        grads = [a.grad] + [p.grad for p in filters.parameters()]
        results.append(([o.data for o in outs], grads))
    (outs, grads), (want_outs, want_grads) = results
    assert all(grad is not None for grad in grads)
    for got, want in zip(outs + grads, want_outs + want_grads):
        assert_allclose(got, want, rtol=0, atol=1e-12)


def _params(*raw):
    """LAHTParams over constant raw (alpha, beta, bias_pos, bias_neg) values."""
    return LAHTParams(*(Tensor(v) for v in raw))


def _raw_of(alpha, beta, bias_pos, bias_neg):
    """The raw values whose effective parameters are the given ones."""
    return np.log(-alpha), np.log(beta), np.log(np.expm1(bias_pos)), np.log(np.expm1(bias_neg))


def test_laht_zero_fixed_point():
    p = LAHTParams.init()
    out = laht_apply(Tensor(np.zeros(4)), p)
    assert_allclose(out.data, np.zeros(4))


def test_laht_identity_under_zero_bias_and_mirrored_sharpness():
    x = np.linspace(-4, 4, 41)
    # one raw sharpness gives alpha = -beta exactly; softplus(-inf) = 0
    sharp = np.log(3.7)
    out = laht_apply(Tensor(x), _params(sharp, sharp, -np.inf, -np.inf))
    assert np.abs(out.data - x).max() < 1e-12


def test_laht_hard_threshold_limit():
    out = laht_apply(Tensor(np.array([3.0, 0.5, -3.0])),
                     _params(*_raw_of(-50.0, 50.0, 1.0, 1.0)))
    assert 2.99 <= out.data[0] <= 3.0
    assert 0.0 <= out.data[1] <= 1e-6
    assert -3.0 <= out.data[2] <= -2.99


def _laht_composed(x, raw_alpha, raw_beta, raw_pos, raw_neg):
    # the reference: the exp, neg and softplus nodes of the reparameterization,
    # then the eight elementwise nodes of the thresholding
    alpha, beta = ad.neg(ad.exp(raw_alpha)), ad.exp(raw_beta)
    bias_pos, bias_neg = reference.softplus(raw_pos), reference.softplus(raw_neg)
    gate = ad.add(
        reference.sigmoid(ad.mul(alpha, ad.add(x, bias_neg))),
        reference.sigmoid(ad.mul(beta, ad.sub(x, bias_pos))),
    )
    return ad.mul(x, gate)


def _laht_node(x, *raw):
    return laht_apply(x, LAHTParams(*raw))


def _laht_output_and_grads(laht, arrays, probe):
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape():
        out = laht(*leaves)
        backward(ad.reduce_sum(ad.mul(out, Tensor(probe))))
    return [out.data] + [t.grad for t in leaves]


def _assert_laht_matches_the_composed_form(x, raw):
    arrays = [x] + [np.array(v) for v in raw]
    probe = np.random.default_rng(7).normal(size=x.shape)
    got = _laht_output_and_grads(_laht_node, arrays, probe)
    want = _laht_output_and_grads(_laht_composed, arrays, probe)
    for g, w in zip(got, want):
        assert np.shape(g) == np.shape(w)
        assert_allclose(g, w, rtol=1e-12, atol=1e-12)


_SATURATED_X = np.r_[np.linspace(-0.5, 0.5, 62), -0.2, -0.2001, 0.3, 0.3002].reshape(1, 2, 33)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("x, alpha, beta", [
    (np.array(0.7), -4.0, 4.0),
    (np.random.default_rng(5).normal(size=5), -4.0, 4.0),
    (np.random.default_rng(6).normal(size=(1, 2, 33)), -10.0, 7.0),
    (_SATURATED_X, -1e3, 1e3),  # thresholds at -bias_neg = -0.2 and bias_pos = 0.3
], ids=["0d", "vector", "frontend", "saturated"])
def test_fused_laht_matches_the_eight_node_form(x, alpha, beta):
    _assert_laht_matches_the_composed_form(x, _raw_of(alpha, beta, 0.3, 0.2))


def test_laht_with_an_overflowing_raw_sharpness_matches_the_composed_form():
    # exp(800) is inf, so alpha is -inf: no OverflowError, the same infs and NaNs
    x = np.random.default_rng(8).normal(size=(1, 2, 9))
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_laht_matches_the_composed_form(x, (800.0, *_raw_of(-4.0, 4.0, 0.3, 0.2)[1:]))


def test_laht_rejects_non_scalar_parameters():
    params = LAHTParams.init()
    params.raw_beta = Tensor(np.zeros(2))
    with pytest.raises(DimensionError):
        laht_apply(Tensor(np.zeros(2)), params)


def test_laht_constraints_from_reparameterization():
    rng = np.random.default_rng(2)
    for _ in range(20):
        p = LAHTParams(
            raw_alpha=Tensor(rng.normal() * 3),
            raw_beta=Tensor(rng.normal() * 3),
            raw_bias_pos=Tensor(rng.normal() * 3),
            raw_bias_neg=Tensor(rng.normal() * 3),
        )
        alpha, beta, bias_pos, bias_neg = p.values()
        assert alpha < 0 < beta
        assert bias_pos > 0 and bias_neg > 0


def _random_params(rng, mirrored=False):
    """Sharpness in [0.5, 30], the same for both gates when ``mirrored``; biases in (0, 2]."""
    alpha, beta = -rng.uniform(0.5, 30), rng.uniform(0.5, 30)
    return _params(*_raw_of(-beta if mirrored else alpha, beta, *rng.uniform(1e-6, 2, size=2)))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_laht_sign_and_zero_properties(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=32) * 3
    out = laht_apply(Tensor(x), _random_params(rng)).data
    zero = laht_apply(Tensor(0.0), _params(*_raw_of(-1.0, 1.0, 0.1, 0.1)))
    assert float(zero.data) == 0.0
    ok = (np.sign(out) == np.sign(x)) | (np.abs(out) < 1e-9)
    assert ok.all()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_laht_shrinks_under_mirrored_sharpness(seed):
    # the gate is a probability only when |alpha| == |beta|; with unequal
    # magnitudes it can exceed 1 in the transition region
    rng = np.random.default_rng(seed)
    x = rng.normal(size=32) * 3
    out = laht_apply(Tensor(x), _random_params(rng, mirrored=True)).data
    assert np.all(np.abs(out) <= np.abs(x) * (1 + 1e-9))


def _fixed_frontend(levels, laht_enabled=False):
    cfg = FrontEndConfig(levels=levels, kernel_size=20, sharing="db10_fixed",
                         laht_enabled=laht_enabled)
    return cfg, FrontEndFilters(cfg)


def test_frontend_band_widths():
    cfg = FrontEndConfig(levels=3, kernel_size=2, sharing="db10_fixed", laht_enabled=False)
    filters = FrontEndFilters(cfg)
    bands = frontend_forward(Tensor(np.random.default_rng(0).normal(size=(1, 1, 1024))), cfg,
                             filters)
    assert [b.data.shape[2] for b in bands] == [512, 256, 128, 128]  # details, approximation


def test_frontend_zero_signal():
    cfg, filters = _fixed_frontend(2)
    for band in frontend_forward(Tensor(np.zeros((1, 1, 128))), cfg, filters):
        assert_allclose(band.data, np.zeros_like(band.data))


def test_frontend_too_short_names_minimum():
    cfg, filters = _fixed_frontend(3)
    with pytest.raises(InputTooShortError, match=str(cfg.min_input_length)):
        frontend_forward(Tensor(np.zeros((1, 1, 64))), cfg, filters)


def _laht_frontend_tape_kinds(levels):
    cfg = FrontEndConfig(levels=levels, kernel_size=2, sharing="db10_fixed")
    lahts = [LAHTParams.init() for _ in range(levels)]
    with Tape() as tape:
        frontend_forward(Tensor(np.ones((1, 1, 64))), cfg, FrontEndFilters(cfg), lahts)
    return tape.kinds


@pytest.mark.parametrize("levels", [1, 3])
def test_frontend_reparameterizes_each_laht_level_once(levels):
    # inside the level's laht node: no exp, neg or softplus node of its own
    kinds = _laht_frontend_tape_kinds(levels)
    reparameterization = [k for k in kinds if k in ("exp", "neg", "softplus")]
    assert (len(reparameterization), kinds.count("laht")) == (0, levels)


@pytest.mark.parametrize("levels", [1, 3])
def test_frontend_applies_one_laht_per_level(levels):
    # one fused laht node covers both channels of a level
    kinds = _laht_frontend_tape_kinds(levels)
    assert (kinds.count("laht"), kinds.count("sigmoid")) == (levels, 0)


def test_roundtrip_haar():
    rng = np.random.default_rng(7)
    x = rng.normal(size=1024)
    pairs = [(HAAR, derive_cqf(Tensor(HAAR)).data)] * 3
    a = x.copy().reshape(1, 1, -1)
    bands = []
    for h, g in pairs:
        a_t, d_t = _channels(decompose_level(Tensor(a), Tensor(h), Tensor(g)))
        bands.append(d_t.data)
        a = a_t.data
    rebuilt = _reconstruct(bands + [a], pairs)
    assert np.abs(rebuilt - x).max() < 1e-10


def test_roundtrip_db10_five_levels():
    rng = np.random.default_rng(8)
    x = rng.normal(size=2048)
    cfg, filters = _fixed_frontend(5)
    bands = frontend_forward(Tensor(x.reshape(1, 1, -1)), cfg, filters)
    pairs = [tuple(f.data for f in filters.level_pair(i)) for i in range(cfg.levels)]
    rebuilt = _reconstruct([b.data for b in bands], pairs)
    assert np.abs(rebuilt - x).max() < 1e-6


@settings(max_examples=12, deadline=None)
@given(
    st.integers(min_value=9, max_value=12),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=2**31),
)
def test_roundtrip_property(log_len, levels, seed):
    x = np.random.default_rng(seed).normal(size=2**log_len)
    cfg = FrontEndConfig(levels=levels, kernel_size=20, sharing="db10_fixed",
                         laht_enabled=False)
    filters = FrontEndFilters(cfg)
    if 2**log_len < cfg.min_input_length:
        return
    bands = frontend_forward(Tensor(x.reshape(1, 1, -1)), cfg, filters)
    pairs = [tuple(f.data for f in filters.level_pair(i)) for i in range(cfg.levels)]
    rebuilt = _reconstruct([b.data for b in bands], pairs)
    assert np.abs(rebuilt - x).max() < 1e-6


def test_energy_partition_per_level_db10():
    rng = np.random.default_rng(9)
    cfg, filters = _fixed_frontend(4)
    x = rng.normal(size=(1, 1, 1024))
    a = Tensor(x)
    for level in range(4):
        h, g = filters.level_pair(level)
        a_next, d_next = _channels(decompose_level(a, h, g))
        before = (a.data**2).sum()
        after = (a_next.data**2).sum() + (d_next.data**2).sum()
        assert abs(before - after) < 1e-8
        a = a_next


def test_cqf_gradient_flow_perturbation():
    # in tied modes a low-pass perturbation must move the high-pass output
    cfg = FrontEndConfig(levels=1, kernel_size=4, sharing="single_kernel",
                         laht_enabled=False)
    filters = FrontEndFilters(cfg)
    x = Tensor(np.random.default_rng(1).normal(size=(1, 1, 16)))
    _, d0 = _channels(decompose_level(x, *filters.level_pair(0)))
    filters._h[0].data = filters._h[0].data + 1e-3
    _, d1 = _channels(decompose_level(x, *filters.level_pair(0)))
    assert np.abs(d1.data - d0.data).max() > 1e-6


def test_frontend_gradcheck_through_cascade():
    def build(t):
        cfg = FrontEndConfig(levels=2, kernel_size=4, sharing="single_kernel",
                             laht_enabled=False)
        filters = FrontEndFilters(cfg)
        filters._h[0] = t[0]
        *details, approximation = frontend_forward(t[1], cfg, filters)
        probe = Tensor(np.random.default_rng(0).normal(size=approximation.data.shape))
        total = ad.reduce_sum(ad.mul(approximation, probe))
        for d in details:
            total = ad.add(total, ad.reduce_sum(ad.mul(d, d)))
        return total

    h = daubechies_lowpass(2)
    x = np.random.default_rng(3).normal(size=(1, 1, 32))
    assert check_gradients(build, [h, x]) < 1e-4


def test_sharing_mode_parameter_counts():
    for mode, expected in [
        ("db10_fixed", 0),
        ("single_kernel", 1),
        ("layer_wise", 4),
        ("all_kernel", 8),
    ]:
        cfg = FrontEndConfig(levels=4, kernel_size=20, sharing=mode, laht_enabled=False)
        filters = FrontEndFilters(cfg)
        assert len(filters.parameters()) == expected
        for p in filters.parameters():
            assert p.data.shape == (20,)
