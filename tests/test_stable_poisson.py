import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from curvemax.norms import _blocks, dilate, make_space, rho
from curvemax.rng import stream
from curvemax.stable_poisson import (gram_psd_check, sample_kernel_batch,
                                     sample_positive_stable,
                                     sample_symmetric_stable, semigroup_check,
                                     stable_density_1d,
                                     subordination_identity_check)


@pytest.mark.parametrize("x", [0.0, 0.1, 1.0 / (2.0 * math.pi), 1.0, 3.0])
def test_cauchy_like_density_closed_form(x):
    val = stable_density_1d(1.0, x)
    assert val == pytest.approx(2.0 / (1.0 + 4.0 * math.pi**2 * x**2),
                                abs=1e-8)


@pytest.mark.parametrize("x", [0.0, 0.3, 1.0])
def test_gaussian_density_closed_form(x):
    # beta = 2 inverts to sqrt(pi) exp(-pi^2 x^2)
    val = stable_density_1d(2.0, x, tol=1e-10)
    assert val == pytest.approx(math.sqrt(math.pi) * math.exp(-math.pi**2 * x**2),
                                abs=1e-9)


def test_density_rejects_bad_beta():
    with pytest.raises(ValueError):
        stable_density_1d(0.5, 0.0)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_density_rejects_non_finite_x(x):
    # the cosine-weighted quadrature returned nan here
    with pytest.raises(ValueError, match="finite"):
        stable_density_1d(1.5, x)


@pytest.mark.parametrize("beta", [1.0, 1.25, 1.5, 2.0])
def test_symmetric_sampler_characteristic_function(beta):
    rng = np.random.default_rng(42)
    n = 200_000
    y = sample_symmetric_stable(beta, rng, size=n)
    for u in (0.3, 1.0, 2.0):
        target = math.exp(-abs(u) ** beta)
        vals = np.cos(u * y)
        gap = abs(vals.mean() - target)
        assert gap <= 3.0 * vals.std() / math.sqrt(n) + 1e-12


@pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75])
def test_positive_sampler_laplace_transform(gamma):
    rng = np.random.default_rng(43)
    n = 200_000
    s = sample_positive_stable(gamma, rng, size=n)
    assert np.all(s > 0)
    for lam in (0.5, 1.0, 3.0):
        target = math.exp(-lam ** gamma)
        vals = np.exp(-lam * s)
        gap = abs(vals.mean() - target)
        assert gap <= 3.0 * vals.std() / math.sqrt(n) + 1e-12


def test_level_one_draws_are_the_general_form_within_8_ulps():
    # at gamma = 1/2 the sampler takes (1 + tan(U/2)^2) / (4 W), one
    # tangent; the general form, evaluated here with libm sines on the same
    # U and W, differs only by rounding
    n = 200_000
    got = sample_positive_stable(0.5, stream(5, 3), size=n)
    rng = stream(5, 3)
    u = rng.uniform(0.0, math.pi, size=n)
    w = rng.standard_exponential(size=n)
    a = np.sin(0.5 * u) ** 1.0 * np.sin(0.5 * u) / np.sin(u) ** 2.0
    want = (a / w) ** 1.0
    assert np.all(np.abs(got - want) <= 8.0 * np.spacing(want))


def test_half_stable_matches_inverse_square_normal():
    # gamma = 1/2 subordinator equals 1/(2 Z^2) in law
    rng = np.random.default_rng(44)
    n = 100_000
    s = sample_positive_stable(0.5, rng, size=n)
    z = rng.standard_normal(n)
    ref = 1.0 / (2.0 * z * z)
    stat = stats.ks_2samp(s, ref).pvalue
    assert stat > 1e-4


def test_subordination_identity_oracle():
    res = subordination_identity_check(4.0, 0.5, tol=1e-8)
    assert res.passed
    assert res.lhs == pytest.approx(2.0, rel=1e-12)
    assert res.rhs == pytest.approx(2.0, abs=1e-8)


def test_subordination_identity_grid():
    for x in (0.5, 2.0, 9.0):
        for gamma in (0.3, 0.5, 0.8):
            assert subordination_identity_check(x, gamma, tol=1e-8).passed


def test_stable_blocks_cover_all_indices():
    # the kernel sampler draws one b_j-stable coordinate per index j of each
    # block, with b_j = 2^level / j
    for d in (1, 2, 3, 5, 16):
        blocks = _blocks(d)
        seen = sorted(int(j) for _, _, _, js in blocks for j in js)
        assert seen == list(range(1, d + 1))
        for _, _, level, js in blocks:
            assert all(1.0 <= 2**level / j <= 2.0 for j in js)


@pytest.mark.parametrize("t", [2.0, 0.3, 2.0**600, 2.0**-600])
def test_kernel_draws_scale_by_dilation(t):
    # same substream, so the underlying uniforms agree draw for draw, and the
    # in-place dilation is dilate's arithmetic: equal bit for bit (2^600 and
    # 2^-600 take dilate's exponent-scaling branch)
    space = make_space(4)
    with np.errstate(over="ignore"):
        pts, _ = sample_kernel_batch(space, t, 500, stream(9, 3))
        unit, _ = sample_kernel_batch(space, 1.0, 500, stream(9, 3))
        assert pts.tobytes() == dilate(unit, t).tobytes()


@pytest.mark.parametrize("d", [4, 8, 16])
def test_kernel_batch_peak_is_one_buffer_and_a_few_draws(d):
    # the points are one (n, d) buffer, divided by 2 pi and dilated in place;
    # besides it the sampler holds the subordinators it returns (one per
    # level) and the four arrays of one coordinate's draw, built in place.
    # Three (n, d) arrays (x, x / 2 pi, the dilation) peaked at 28 and 53
    # arrays of n doubles at d = 8 and 16, and six temporaries per draw at
    # 12, 17 and 26 at d = 4, 8 and 16.
    space = make_space(d)
    levels = sum(1 for _, _, level, _ in _blocks(d) if level)
    n = 50_000
    sample_kernel_batch(space, 1.0, 10, stream(9, 3))   # fill lazy caches
    tracemalloc.start()
    try:
        sample_kernel_batch(space, 1.0, n, stream(9, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n * (d + levels + 4) + 8192


class _Fixed:
    """A stand-in generator whose uniform and exponential draws are given."""

    def __init__(self, u, w):
        self.u, self.w = u, w

    def uniform(self, low, high, size=None):
        assert np.all((low <= self.u) & (self.u < high))
        return self.u.copy()

    def standard_exponential(self, size=None):
        return self.w.copy()


def _old_symmetric(beta, u, w):
    """The libm form that the tangent-based sampler replaced."""
    return (np.sin(beta * u) / np.cos(u) ** (1.0 / beta)
            * (np.cos((1.0 - beta) * u) / w) ** ((1.0 - beta) / beta))


def _old_positive(gamma, u, w):
    """The libm forms that the tangent-based sampler replaced."""
    if gamma == 0.5:
        c = np.cos(0.5 * u)
        return 0.25 / (w * c * c)
    a = (np.sin(gamma * u) ** (gamma / (1.0 - gamma))
         * np.sin((1.0 - gamma) * u) / np.sin(u) ** (1.0 / (1.0 - gamma)))
    return (a / w) ** ((1.0 - gamma) / gamma)


def _ulps(got, want):
    """|got - want| in units of the last place of got, want at 160 bits."""
    mp = pytest.importorskip("mpmath").mp
    return np.array([float(abs(mp.mpf(g) - r) / np.spacing(abs(g)))
                     for g, r in zip(got.tolist(), want)])


@pytest.mark.parametrize("law, param", [("symmetric", 4 / 3),
                                        ("symmetric", 1.6),
                                        ("positive", 0.5),
                                        ("positive", 0.25),
                                        ("positive", 0.125)])
def test_tangent_forms_are_no_less_accurate_than_libm(law, param):
    # each sine and cosine now comes from one tangent; on the same U and W,
    # the uniforms next to the interval ends included, the draws' largest
    # error against the formula at 160 bits exceeds that of the libm forms
    # by less than half an ulp (by 0.23 at most, at gamma = 1/4).  Most of
    # either is the rounding of the exponents and of beta U or gamma U,
    # which both share, raised through the powers
    mp = pytest.importorskip("mpmath").mp
    rng = np.random.default_rng(0)
    k = np.arange(1, 41)
    if law == "symmetric":
        half = 0.5 * math.pi
        u = np.concatenate([rng.uniform(-half, half, 1000), [-half],
                            -half + k * np.spacing(half),
                            half - k * np.spacing(half)])
    else:
        u = np.concatenate([rng.uniform(0.0, math.pi, 1000), [0.5 * math.pi],
                            math.pi * k * 2.0**-53,
                            math.pi * (1.0 - k * 2.0**-53)])
    w = rng.standard_exponential(len(u))
    w[::37], w[1::37] = 2.0**-53, 40.0
    with mp.workprec(160):
        p = mp.mpf(param)
        us, ws = map(mp.mpf, u.tolist()), map(mp.mpf, w.tolist())
        if law == "symmetric":
            new = sample_symmetric_stable(param, _Fixed(u, w))
            old = _old_symmetric(param, u, w)
            want = [mp.sin(p * a) / mp.cos(a) ** (1 / p)
                    * (mp.cos((1 - p) * a) / b) ** ((1 - p) / p)
                    for a, b in zip(us, ws)]
        else:
            new = sample_positive_stable(param, _Fixed(u, w))
            old = _old_positive(param, u, w)
            want = [(mp.sin(p * a) ** (p / (1 - p)) * mp.sin((1 - p) * a)
                     / mp.sin(a) ** (1 / (1 - p)) / b) ** ((1 - p) / p)
                    for a, b in zip(us, ws)]
        assert np.all(np.isfinite(new)) and np.all(new != 0.0)
        assert _ulps(new, want).max() <= _ulps(old, want).max() + 0.5


@pytest.mark.parametrize("sampler, param", [
    (sample_symmetric_stable, 1.0), (sample_symmetric_stable, 4 / 3),
    (sample_positive_stable, 0.5), (sample_positive_stable, 0.25)])
def test_scalar_draw_is_the_first_of_a_batch(sampler, param):
    # the draws are built in place, in arrays; size=None still gives a scalar
    one = sampler(param, stream(4, 3))
    assert isinstance(one, np.float64)
    assert one == sampler(param, stream(4, 3), size=1)[0]
    assert sampler(param, stream(4, 3), size=(2, 3)).shape == (2, 3)


@pytest.mark.parametrize("n", [0, -1, 2.5, "10"])
def test_kernel_draws_need_a_positive_integer_count(n):
    # -1 ended in numpy's "negative dimensions", 2.5 in a TypeError, and 0
    # returned empty arrays
    with pytest.raises(ValueError, match="n must be an integer >= 1"):
        sample_kernel_batch(make_space(2), 1.0, n, stream(9, 3))


@pytest.mark.parametrize("n_samples", [0, -5])
def test_semigroup_check_needs_a_sample(n_samples):
    # n_samples = 0 returned passed=False with nan gaps
    with pytest.raises(ValueError, match="n_samples must be an integer >= 1"):
        semigroup_check(0.7, 1.3, [[0.3, 1.1]], n_samples=n_samples)


@pytest.mark.parametrize("points", [[], np.empty((0, 2)), [1.0, 2.0]])
def test_gram_check_needs_points(points):
    # no points ended in an IndexError
    with pytest.raises(ValueError, match="nonempty"):
        gram_psd_check(points)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_kernel_draws_reject_non_finite_scale(t):
    # nan and inf passed the t <= 0 guard and gave nan or inf points
    with pytest.raises(ValueError, match="finite"):
        sample_kernel_batch(make_space(2), t, 10, stream(9, 3))


@pytest.mark.parametrize("t", [math.nan, math.inf, 0.0, -1.0])
def test_gram_check_rejects_scales_outside_the_half_line(t):
    # nan gave a nan eigenvalue, which a running min over sets skips
    pts = np.random.default_rng(0).standard_normal((5, 2))
    with pytest.raises(ValueError, match="positive and finite"):
        gram_psd_check(pts, t=t)


@pytest.mark.parametrize("x", [math.inf, math.nan])
def test_subordination_check_rejects_non_finite_x(x):
    # inf passed with lhs inf against a finite rhs (inf <= inf held), and
    # nan ended in ZeroDivisionError
    with pytest.raises(ValueError, match="finite x > 0"):
        subordination_identity_check(x, 0.5)


def test_kernel_marginal_characteristic_function():
    space = make_space(2)
    rng = stream(1, 3)
    pts, _ = sample_kernel_batch(space, 1.0, 200_000, rng)
    xi = np.array([0.6, 0.4])
    phases = np.exp(-2j * math.pi * (pts @ xi))
    target = math.exp(-rho(xi))
    gap = abs(phases.mean() - target)
    se = math.sqrt((phases.real.var() + phases.imag.var()) / len(pts))
    assert gap <= 3.0 * se


def test_semigroup_property():
    rep = semigroup_check(0.7, 1.3, [[0.3, 1.1], [1.0, 0.2]], n_samples=50_000,
                          seed=0)
    assert rep.passed
    assert rep.fourier_gap <= 5e-15


def test_gram_matrices_numerically_psd():
    rng = stream(2, 7)
    for d in (1, 2, 3):
        for _ in range(10):
            pts = rng.standard_normal((25, d)) * 10.0 ** rng.uniform(-1, 1)
            assert gram_psd_check(pts, t=1.0) >= -1e-8


def test_gram_tightness_at_tiny_scale():
    # at t -> 0 the matrix approaches all-ones, one eigenvalue near zero
    pts = stream(3, 7).standard_normal((10, 2))
    assert gram_psd_check(pts, t=1e-9) == pytest.approx(0.0, abs=1e-6)
