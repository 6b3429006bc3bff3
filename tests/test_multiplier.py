import math

import numpy as np
import pytest

from curvemax.multiplier import (g_profile, induction_diagnostics,
                                 log_growth_experiment, nu_hat, sup_search)
from curvemax.norms import dilate, rho
from curvemax.oscillatory import QuadratureError


def profile_reference_1d(x, k_lo=-220, k_hi=64):
    """Direct summation of the closed-form one-dimensional profile."""
    total = 0.0
    for k in range(k_lo, k_hi + 1):
        eta = (2.0 ** k) * x
        v = 2.0 * np.sinc(2.0 * eta) - np.sinc(eta) - math.exp(-(2.0 ** k) * abs(x))
        total += v * v
    return math.sqrt(total)


def test_nu_hat_oracles():
    assert nu_hat(np.array([1.0])) == pytest.approx(-math.exp(-1.0), abs=1e-10)
    assert nu_hat(np.array([0.5])) == pytest.approx(
        -2.0 / math.pi - math.exp(-0.5), abs=1e-10)


def test_nu_hat_vanishes_at_extreme_scales():
    xi = np.array([0.7, 1.3])
    assert abs(nu_hat(xi, k=-40)) < 1e-10
    assert abs(nu_hat(xi, k=6, tol=1e-8)) < 0.05


@pytest.mark.parametrize("x", [0.03, 0.4, 1.0, 5.7, 40.0])
def test_profile_matches_direct_summation_1d(x):
    prof = g_profile(np.array([x]), tol=1e-7)
    assert prof.g_value == pytest.approx(profile_reference_1d(x), abs=1e-6)
    assert not prof.envelope_only


def test_profile_entries_are_moduli():
    prof = g_profile(np.array([0.9, 0.4]), tol=1e-3)
    vals = np.asarray(prof.values)
    assert np.all(vals >= 0.0)
    assert prof.g_value >= math.sqrt(float(np.sum(vals ** 2))) - 1e-12


def test_lower_bound_never_exceeds_value():
    rng = np.random.default_rng(12)
    for _ in range(10):
        d = int(rng.integers(1, 5))
        xi = rng.standard_normal(d) * 10.0 ** rng.uniform(-1, 1)
        prof = g_profile(xi, tol=1e-3)
        assert prof.g_lower <= prof.g_value
        assert prof.tail_bound >= 0.0


def test_dyadic_dilation_invariance():
    rng = np.random.default_rng(6)
    for _ in range(8):
        d = int(rng.integers(1, 4))
        xi = rng.standard_normal(d)
        xi[-1] = np.sign(xi[-1]) + xi[-1]  # keep the top entry well off zero
        a = g_profile(xi, tol=1e-5)
        b = g_profile(dilate(xi, 2.0), tol=1e-5)
        allowance = a.tail_bound + b.tail_bound + 2e-5
        assert abs(a.g_value - b.g_value) <= allowance


def test_zero_padding_enters_for_free():
    x = 0.8
    base = g_profile(np.array([x]), tol=1e-6)
    padded = g_profile(np.array([x, 0.0, 0.0]), tol=1e-6)
    assert padded.g_value == base.g_value
    assert padded.values == base.values


def test_sup_search_dominates_dense_grid():
    row = sup_search(1, budget=400, seed=0, tol=1e-4)
    grid = np.concatenate([np.linspace(0.05, 4.0, 400),
                           10.0 ** np.linspace(-4, 3, 200)])
    dense = max(g_profile(np.array([x]), tol=1e-4).g_value for x in grid)
    assert row.sup_estimate >= dense - 5e-4
    assert row.g_lower <= row.sup_estimate
    assert row.evals <= 400 + 10


def test_growth_table_monotone_and_fits():
    table = log_growth_experiment(d_list=(1, 2, 4), budget=120, seed=0)
    sups = [r.sup_estimate for r in table.rows]
    assert sups == sorted(sups)
    assert all(np.isfinite(r.sup_estimate) for r in table.rows)
    assert np.isfinite(table.fit_slope)
    assert len(table.residuals) == 3


def test_induction_diagnostics_structure():
    xi = np.array([0.3, 1.7, -0.2, 0.9])
    diag = induction_diagnostics(xi, tol=1e-3)
    assert diag.j_pivot in (3, 4)
    assert diag.threshold == pytest.approx(
        abs(xi[diag.j_pivot - 1]) ** (-1.0 / diag.j_pivot), rel=1e-12)
    assert len(diag.y) == 4
    assert diag.y[2] == diag.y[3] == 0.0
    assert np.isfinite(diag.term_far) and diag.term_far >= 0.0
    assert np.isfinite(diag.term_near) and diag.term_near >= 0.0


def test_induction_terms_bounded_on_sample():
    rng = np.random.default_rng(21)
    for d in (2, 4):
        for _ in range(5):
            xi = rng.standard_normal(d) * 10.0 ** rng.uniform(-1, 2)
            diag = induction_diagnostics(xi, tol=5e-3)
            assert diag.term_far + diag.term_far_tail < 100.0
            assert diag.term_near + diag.term_near_tail < 100.0


@pytest.mark.parametrize("scale", [2.0**190, 2.0**-190, 2.0**-500],
                         ids=["2^190", "2^-190", "2^-500"])
def test_window_limit_counts_from_the_window_start(scale):
    # g is delta_2-invariant, so a power-of-two dilation far from k = 0
    # must not exhaust the window
    base = g_profile(np.array([0.7, 1.3]), tol=1e-3)
    far = g_profile(dilate([0.7, 1.3], scale), tol=1e-3)
    assert far.g_value == pytest.approx(base.g_value, abs=1e-12)
    assert len(far.values) == len(base.values)


def test_window_limit_at_extreme_magnitudes():
    tiny = g_profile(np.array([1e-300, 0.0]))
    assert tiny.g_value == g_profile(np.array([1e-300 * 2.0**997, 0.0])).g_value
    # these windows genuinely span hundreds of scales; for the second,
    # G 2^{-k} overflows at the window start and must read as an open tail
    for xi in ([1e200, 1.0], [1e300, 1e-300]):
        with pytest.raises(RuntimeError, match="window limit"):
            g_profile(np.array(xi))


@pytest.mark.parametrize("xi, m", [([1e-305, 0.0], 1014), ([0.0, 2.3e-308], 511)])
def test_profile_at_extreme_magnitudes_matches_its_dilation(xi, m):
    # the window reaches k >= 1024 (xi_1) or 2^{2k} beyond double range
    # (xi_2), so every 2^k scaling must avoid an overflowing intermediate
    far = g_profile(np.array(xi))
    near = g_profile(np.ldexp(xi, m * np.arange(1, 3)))
    assert 1.0 <= rho(np.array(near.xi)) < 2.0
    assert abs(far.g_value - near.g_value) <= far.tail_bound + near.tail_bound


@pytest.mark.parametrize("xi", [[0.0, 5e-324], [5e-324, 0.0]])
def test_profile_rejects_subnormal_coordinates(xi):
    with pytest.raises(ValueError, match="4.94e-324 is subnormal"):
        g_profile(np.array(xi))


def test_profile_entries_are_nu_hat():
    xi = np.array([0.9, 0.4])
    prof = g_profile(xi, tol=1e-3)
    assert prof.envelope_only
    for k, val in zip(prof.window.ks(), prof.values):
        if k in prof.envelope_only:
            with pytest.raises(QuadratureError):
                nu_hat(xi, k, tol=prof.quad_tol)
        else:
            assert val == abs(nu_hat(xi, k, tol=prof.quad_tol))
