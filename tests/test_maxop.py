import math

import numpy as np
import pytest

from curvemax import maxop
from curvemax.curve_measure import CurveCoeffs, DyadicWindow, gamma_reduce
from curvemax.grid import from_callable
from curvemax.maxop import (continuous_max, curve_average, dyadic_max,
                            operator_norm_probe, poisson_max, sandwich_check,
                            shell_average, split_check)

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
        assert rep.violation == 0.0


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


def test_operator_norm_probe_bounded():
    fam = [bump_grid(), constant_grid(n=129)]
    ratios = operator_norm_probe(fam, WINDOW, 128)
    assert len(ratios) == 2
    assert all(0.0 < r <= 2.0 for r in ratios)
    with pytest.raises(ValueError):
        operator_norm_probe([constant_grid(value=0.0)], WINDOW, 128)


def test_split_check_computes_each_shell_once(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return shell_average(*args, **kwargs)

    monkeypatch.setattr(maxop, "shell_average", counting)
    f = bump_grid(n=33)
    split_check(f, WINDOW, t_samples=64, mc_samples=100, seed=0)
    assert calls == list(WINDOW.ks())
