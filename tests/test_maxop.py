import math

import numpy as np
import pytest

from curvemax import maxop
from curvemax.curve_measure import CurveCoeffs, DyadicWindow, gamma_reduce
from curvemax.grid import GridFunction, from_callable
from curvemax.maxop import (continuous_max, curve_average, dyadic_max,
                            poisson_max, sandwich_check, shell_average,
                            split_check)

WINDOW = DyadicWindow(-3, 0)
RADII = 2.0 ** np.linspace(-3, 0, 7)


def constant_grid(value=1.0, n=65, span=2.0):
    return from_callable(lambda p: np.full(len(p), value), -span, span, (n,))


def bump_grid(n=129, span=2.0):
    return from_callable(lambda p: np.exp(-p[:, 0] ** 2 / 3.0), -span, span, (n,))


def test_averages_of_constants_are_exact_inside():
    f = constant_grid()
    mid = 32
    for r in (0.25, 1.0):
        assert curve_average(f, r, 128).samples[mid] == pytest.approx(1.0,
                                                                      rel=1e-12)
    for k in (-2, 0):
        assert shell_average(f, k, 128).samples[mid] == pytest.approx(1.0,
                                                                      rel=1e-12)


def test_indicator_at_origin_2d():
    # radius-1 curve piece stays inside the unit box, so the average is 1
    f = from_callable(lambda p: np.ones(len(p)), (-1.0, -1.0), (1.0, 1.0),
                      (33, 33))
    val = curve_average(f, 1.0, 128).samples[16, 16]
    assert val == pytest.approx(1.0, rel=1e-12)


def test_input_validation():
    f = constant_grid()
    with pytest.raises(ValueError):
        curve_average(f, -1.0)
    with pytest.raises(ValueError):
        curve_average(f, 0.5, t_samples=32)
    with pytest.raises(ValueError):
        continuous_max(f, [])
    with pytest.raises(ValueError):
        poisson_max(f, [1.0], mc_samples=50)
    with pytest.raises(ValueError, match="at least one scale"):
        poisson_max(f, [])


@pytest.mark.parametrize("t", [64.5, 64.0, 32, math.nan])
def test_averages_need_an_integer_of_at_least_64_nodes(t):
    # 64.5 built a 65-node rule whose last node sat at the interval end
    f = constant_grid()
    with pytest.raises(ValueError, match="t_samples"):
        curve_average(f, 0.5, t)
    with pytest.raises(ValueError, match="t_samples"):
        shell_average(f, -1, t)


def test_sandwich_check_needs_a_radius():
    # ended in numpy's "zero-size array to reduction operation maximum"
    with pytest.raises(ValueError, match="at least one radius"):
        sandwich_check(constant_grid(), WINDOW, [])


@pytest.mark.parametrize("mc", [0, 1, -5])
def test_split_check_needs_100_monte_carlo_draws(mc):
    # one draw reported passed=True, 0 a nan report, -5 numpy's
    # "negative dimensions"; poisson_max already had the rule
    with pytest.raises(ValueError, match="at least 100 Monte Carlo"):
        split_check(bump_grid(n=33), WINDOW, t_samples=64, mc_samples=mc)


@pytest.mark.parametrize("r", [math.nan, math.inf])
def test_curve_average_rejects_non_finite_radius(r):
    # nan and inf passed the r <= 0 guard and gave an all-zero grid
    with pytest.raises(ValueError, match="finite"):
        curve_average(constant_grid(), r)


@pytest.mark.parametrize("r", [math.nan, math.inf])
def test_continuous_max_rejects_non_finite_radius(r):
    with pytest.raises(ValueError, match="finite"):
        continuous_max(constant_grid(), [0.5, r])


def test_shell_past_the_double_range_is_rejected():
    # 2.0 ** 1024 ended in a bare OverflowError
    with pytest.raises(ValueError, match=r"2\^1024"):
        shell_average(constant_grid(), 1024)


@pytest.mark.parametrize("k", [math.nan, math.inf, 0.5])
def test_shell_average_needs_a_finite_integer_scale(k):
    # nan and inf gave an all-zero average with no warning, and 0.5 the
    # non-dyadic shell (2^-1/2, 2^1/2]
    with pytest.raises(ValueError, match=f"finite integer, got k = {k}"):
        shell_average(constant_grid(), k)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_poisson_max_rejects_non_finite_scale(t):
    # nan gave zeros with rel_stderr 0 and no warning
    with pytest.raises(ValueError, match="finite"):
        poisson_max(constant_grid(), [t], mc_samples=100)


def test_escape_warning_fires():
    f = constant_grid(n=33, span=1.0)
    with pytest.warns(RuntimeWarning, match="left the grid"):
        curve_average(f, 3.0, 128)


def test_dyadic_max_dominates_each_shell():
    f = bump_grid()
    m = dyadic_max(f, WINDOW, 128).samples
    for k in WINDOW.ks():
        assert np.all(m >= shell_average(f, k, 128).samples - 1e-15)


def test_positive_homogeneity_and_subadditivity():
    f = bump_grid()
    g = from_callable(lambda p: 0.5 / (1.0 + p[:, 0] ** 2), -2.0, 2.0, (129,))
    mf = dyadic_max(f, WINDOW, 128).samples
    mg = dyadic_max(g, WINDOW, 128).samples
    np.testing.assert_allclose(
        dyadic_max(f.with_samples(3.0 * f.samples), WINDOW, 128).samples,
        3.0 * mf, rtol=1e-13)
    msum = dyadic_max(f.with_samples(f.samples + g.samples), WINDOW, 128).samples
    assert np.all(msum <= mf + mg + 1e-13)


def test_monotone_in_the_data():
    f = bump_grid()
    g = f.with_samples(f.samples + 0.3)
    assert np.all(dyadic_max(g, WINDOW, 128).samples
                  >= dyadic_max(f, WINDOW, 128).samples - 1e-15)


def midpoints(lo, hi, n):
    edges = np.linspace(lo, hi, n + 1)
    return 0.5 * (edges[:-1] + edges[1:])


def gauss_grid_2d(n=49):
    return from_callable(
        lambda p: np.exp(-np.sum((p - [0.1, 0.3]) ** 2, axis=1) / 3.0),
        (-2.0, -2.0), (2.0, 2.0), (n, n))


def test_averages_are_means_of_translates_over_midpoint_nodes():
    # the contract any faster evaluation of the averages must keep
    f = gauss_grid_2d(n=33)
    r, k = 0.75, -1
    pos = midpoints(2.0 ** (k - 1), 2.0**k, 65)
    for avg, nodes, reach in (
            (curve_average(f, r, 70), midpoints(-r, r, 70), r),
            (shell_average(f, k, 131), np.concatenate([-pos, pos]), 2.0**k)):
        ref = np.mean([f.shifted((t, t * t)) for t in nodes], axis=0)
        mask = maxop._interior_mask(f, reach)
        assert mask.sum() >= 100
        np.testing.assert_allclose(avg.samples[mask], ref[mask], rtol=1e-13)


@pytest.mark.parametrize("d, n", [(1, 40), (2, 17), (3, 9)])
def test_translate_sum_matches_per_translate_sums(d, n):
    # the whole grid, boundary band included: the stencil path reads the
    # same zero-extended lattice as each translate does
    rng = np.random.default_rng(20 + d)
    f = GridFunction(mins=(-1.0,) * d, steps=tuple(rng.uniform(0.1, 0.3, d)),
                     samples=rng.uniform(0.0, 2.0, (n,) * d))
    steps = np.array(f.steps)
    pts = np.concatenate([
        rng.normal(0.0, 1.5, (150, d)),                  # mostly on the grid
        5.0 * rng.standard_cauchy((40, d)),              # heavy tails, many off it
        np.round(rng.normal(0.0, 2.0, (20, d)) / steps) * steps,  # whole cells
        [[1e300] * d, [-1e300] * d],                     # far off the grid
        [(n - 0.5) * steps, -(n + 0.5) * steps],         # just off either end
    ])
    translates = np.array([f.shifted(p) for p in pts])
    ref, ref_sq = translates.sum(axis=0), (translates**2).sum(axis=0)
    acc, acc_sq = maxop._translate_sums(f, pts, squares=True)
    np.testing.assert_allclose(acc, ref, rtol=1e-13, atol=1e-13 * ref.max())
    np.testing.assert_allclose(acc_sq, ref_sq, rtol=1e-13,
                               atol=1e-13 * ref_sq.max())
    # the square layers leave the plain sum's stencil and FFT untouched
    plain, = maxop._translate_sums(f, pts, squares=False)
    np.testing.assert_array_equal(plain, acc)


def fft_rounding_bound(f: GridFunction, n_pts: int, power: int) -> float:
    """Absolute bound c * eps * n_pts * max(f)^power on how far the FFT path
    may sit from the per-translate reference, with c derived as follows.

    Each FFT-path output is u = S * g, a stencil layer S >= 0 of total
    weight at most P = n_pts applied to data g >= 0 (g = f, or the square
    layers, whose weights also total at most P, on Q_delta <= max f^2), on
    n = prod L circular points with L <= 3N per axis (L is the next 5-smooth
    length >= at most 2N).  With eta_n = log2(n) * eta:
    - the transform of g errs by at most eta_n ||g||_2 sqrt(n) in 2-norm
      (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
      Thm 24.2), and is multiplied by |rfft(S)| <= ||S||_1 = P;
    - the transform of S errs by at most eta_n P in every entry: each
      butterfly pass commits at most eta times the l1 norm of its inputs,
      and the nodes of one pass that feed an output partition S;
    - the inverse errs by at most eta_n ||u||_2 <= eta_n P ||g||_2 (Young).
    Scaled by the inverse's 1/sqrt(n) in 2-norm, each of the three adds at
    most eta_n P ||g||_2 to ||u_fft - u||_2, which bounds every entry, and
    ||g||_2 <= N^(d/2) max g.  eta = 8 eps covers radix-2 butterflies with
    twiddles good to an ulp (about 6.7 eps) with room for pocketfft's
    radix-3 and -5 passes, so c_fft = 3 * 8 * log2((3N)^d) * N^(d/2).  The
    reference adds its own rounding: each translate is 2^d multiply-adds
    (and a square), and the row-by-row sum of n_pts of them errs by at most
    n_pts eps / 2 per unit of n_pts max g, so c = c_fft + 2^d + 2 + n_pts.
    Measured errors stay below 3 eps n_pts max(f)^power on every family
    below.
    """
    n, d = f.samples.shape[0], f.d
    c = 3 * 8 * math.log2((3 * n) ** d) * n ** (d / 2) + 2**d + 2 + n_pts
    return c * np.finfo(float).eps * n_pts * float(f.samples.max()) ** power


def fft_path_families(d: int, n: int, steps: np.ndarray,
                      rng: np.random.Generator) -> dict:
    """Point sets whose stencils sit at the edges of the circular layout."""
    fr = rng.uniform(0.0, 1.0, (60, d))
    cells = rng.integers(0, n, (60, d))
    return {
        "offsets >= 0": (cells + fr) * steps,
        "offsets <= 0": -(cells + fr) * steps,
        "n = -N and N - 1": np.concatenate([(fr[:30] - n) * steps,
                                            (fr[30:] + n - 1) * steps]),
        "off the grid": np.concatenate([(fr[:30] + n) * steps,
                                        -(fr[30:] + n + 1) * steps]),
        # n = N - 1 on every axis: only corner c = 0 reaches the grid, and
        # only at the last grid point, with weight 0.1^d
        "corner only": np.array([(n - 0.1) * steps]),
    }


@pytest.mark.parametrize("d, n", [(1, 40), (2, 17), (3, 9)])
def test_fft_path_at_the_edges_of_its_circular_layout(d, n):
    rng = np.random.default_rng(40 + d)
    f = GridFunction(mins=(-1.0,) * d, steps=tuple(rng.uniform(0.1, 0.3, d)),
                     samples=rng.uniform(0.0, 2.0, (n,) * d))
    for name, pts in fft_path_families(d, n, np.array(f.steps), rng).items():
        translates = np.array([f.shifted(p) for p in pts])
        acc, acc_sq = maxop._translate_sums(f, pts, squares=True)
        for power, got in ((1, acc), (2, acc_sq)):
            ref = (translates**power).sum(axis=0)
            err = float(np.max(np.abs(got - ref)))
            assert err <= fft_rounding_bound(f, len(pts), power), (name, power)
            assert np.all(got >= 0.0), (name, power)
        if name == "off the grid":
            assert not acc.any() and not acc_sq.any()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_translate_sum_of_whole_cell_shifts_and_of_no_points(d):
    rng = np.random.default_rng(d)
    f = GridFunction(mins=(0.0,) * d, steps=(0.25,) * d,
                     samples=rng.uniform(0.5, 2.0, (6,) * d))
    cells = rng.integers(-7, 8, (30, d))
    translates = np.array([f.shifted(0.25 * c) for c in cells])
    acc, acc_sq = maxop._translate_sums(f, 0.25 * cells, squares=True)
    np.testing.assert_allclose(acc, translates.sum(axis=0), rtol=1e-14)
    np.testing.assert_allclose(acc_sq, (translates**2).sum(axis=0), rtol=1e-14)
    none = np.empty((0, d))
    for squares in (False, True):
        for empty in maxop._translate_sums(f, none, squares):
            np.testing.assert_array_equal(empty, 0.0)


@pytest.mark.parametrize("d", [1, 2])
def test_half_cell_shift_reads_the_zero_extended_lattice(d):
    # grid-constant boundary: the edge cell interpolates between the last
    # sample and the zero outside, where mode "constant" read 0 outright
    f = GridFunction(mins=(0.0,) * d, steps=(0.5,) * d, samples=np.full((5,) * d, 3.0))
    shift = np.array([(0.25,) * d])
    acc, acc_sq = maxop._translate_sums(f, shift, squares=True)
    edge = (0,) * d
    assert acc[edge] == pytest.approx(3.0 / 2**d, rel=1e-15)
    assert acc_sq[edge] == pytest.approx((3.0 / 2**d) ** 2, rel=1e-15)
    assert f.shifted(shift[0])[edge] == pytest.approx(3.0 / 2**d, rel=1e-15)
    assert acc[(1,) * d] == pytest.approx(3.0, rel=1e-15)


def test_gamma_conjugation_matches_pullback():
    # the average along (gamma_1 t, gamma_2 t^2), formed from translates,
    # equals the moment-curve average of the reduced grid
    gamma = CurveCoeffs((1.5, -0.75))
    f = gauss_grid_2d()
    direct = np.mean([f.shifted(np.multiply(gamma.gamma, (t, t * t)))
                      for t in midpoints(-0.5, 0.5, 128)], axis=0)
    reduced = curve_average(gamma_reduce(f, gamma), 0.5, 128).samples
    np.testing.assert_allclose(reduced, np.flip(direct, axis=1), atol=1e-14)


def test_sandwich_constant_no_violation():
    rep = sandwich_check(constant_grid(), WINDOW, RADII, 128)
    assert rep.violation == 0.0
    assert rep.passed


def test_sandwich_indicator_refines_to_zero():
    ind = lambda p: (np.abs(p[:, 0]) <= 1.0).astype(float)
    for n in (129, 257):
        f = from_callable(ind, -2.0, 2.0, (n,))
        rep = sandwich_check(f, WINDOW, RADII, 256)
        assert rep.passed
        # only rounding is left: m_cont - 2 m_dyad reads three averages of
        # 256 translates, each within fft_rounding_bound / 256 of its value
        assert rep.violation <= 3.0 * fft_rounding_bound(f, 256, 1) / 256


def test_sandwich_rejects_window_larger_than_grid():
    f = constant_grid(n=17, span=0.5)
    with pytest.raises(ValueError):
        sandwich_check(f, DyadicWindow(0, 2), [1.0, 4.0], 128)


def test_split_inequality_smooth_bump():
    f = bump_grid()
    rep = split_check(f, WINDOW, t_samples=128, mc_samples=400, seed=0)
    assert rep.passed
    assert rep.violation <= rep.error_bound


def test_poisson_conservation_and_positivity():
    f = constant_grid(n=129, span=4.0)
    res = poisson_max(f, [2.0 ** -8], mc_samples=1000, seed=0)
    mid = 64
    assert np.all(res.values.samples >= 0.0)
    assert res.values.samples[mid] == pytest.approx(1.0, abs=0.02)
    assert res.values.samples[mid] <= 1.0 + 1e-12
    assert res.rel_stderr < 0.10


def test_poisson_matches_cauchy_convolution():
    # f built from the scale-1 kernel density, so f * P_t is the density at
    # scale 1 + t in closed form
    fn = lambda p: 2.0 / (1.0 + 4.0 * math.pi ** 2 * p[:, 0] ** 2)
    f = from_callable(fn, -8.0, 8.0, (513,))
    t = 1.0
    res = poisson_max(f, [t], mc_samples=4000, seed=0)
    mid = 256
    exact = 2.0 * (1.0 + t) / ((1.0 + t) ** 2)
    est = res.values.samples[mid]
    tail_and_grid = 0.02
    assert abs(est - exact) <= 3.0 * res.rel_stderr * est + tail_and_grid


def test_split_check_computes_each_shell_once(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return shell_average(*args, **kwargs)

    monkeypatch.setattr(maxop, "shell_average", counting)
    f = bump_grid(n=33)
    split_check(f, WINDOW, t_samples=64, mc_samples=100, seed=0)
    assert calls == list(WINDOW.ks())
