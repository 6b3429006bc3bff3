import ast
import inspect
import re

import numpy as np
import pytest
from scipy import special

from curvemax import oscillatory
from curvemax.curve_measure import mu_hat, sigma_hat
from curvemax.multiplier import g_profile, nu_hat
from curvemax.oscillatory import (MAX_DEGREE, PhasePoly, QuadratureError,
                                  osc_integral, sublevel_measure, vdc_bound_check,
                                  vinogradov_check)
from curvemax.stable_poisson import stable_density_1d


def fresnel_reference(lam):
    """int_0^1 exp(i lam t^2) dt via the Fresnel functions."""
    u = np.sqrt(2.0 * lam / np.pi)
    s, c = special.fresnel(u)
    return np.sqrt(np.pi / (2.0 * lam)) * (c + 1j * s)


@pytest.mark.parametrize("lam", [0.5, np.pi / 2.0, 10.0, 100.0, 3000.0, 3e4])
def test_quadratic_phase_against_fresnel(lam):
    val = osc_integral(PhasePoly((0.0, lam)), 0.0, 1.0, tol=1e-12)
    assert val == pytest.approx(fresnel_reference(lam), abs=5e-12)


def test_linear_phase_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(50):
        b = rng.uniform(-200, 200)
        val = osc_integral(PhasePoly((b,)), -1.0, 1.0, tol=1e-12)
        assert val == pytest.approx(2.0 * np.sinc(b / np.pi), abs=1e-11)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-8])
def test_rejects_tolerance_outside_finite_positive(tol):
    # tol <= 0 refined up to the panel cap before failing, nan failed as a
    # QuadratureError and inf returned an unrefined value
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        osc_integral(PhasePoly((0.0, 10.0)), 0.0, 1.0, tol=tol)


# public entries that answer without quadrature, or halve tol before it
TOL_ENTRIES = {
    "nu_hat-linear": lambda tol: nu_hat((0.5,), 0, tol),
    "nu_hat-general": lambda tol: nu_hat((0.7, 1.3), 0, tol),
    "sigma_hat-zero": lambda tol: sigma_hat((0.0,), tol),
    "mu_hat-zero": lambda tol: mu_hat((0.0,), tol),
    "stable_density_1d": lambda tol: stable_density_1d(1.5, 0.3, tol=tol),
}


@pytest.mark.parametrize("tol", [np.nan, -1.0, 0.0, np.inf])
@pytest.mark.parametrize("entry", TOL_ENTRIES)
def test_every_tolerance_entry_rejects_and_names_the_callers_value(entry, tol):
    # nu_hat's closed form, the zero-frequency shortcuts and the density
    # returned numbers; sigma_hat's message named tol / 2
    with pytest.raises(ValueError, match=re.escape(
            f"tol must be finite and positive, got {tol}")):
        TOL_ENTRIES[entry](tol)


def test_constant_term_only_rotates():
    p0 = PhasePoly((3.0, -2.0, 0.7))
    p1 = PhasePoly((3.0, -2.0, 0.7), constant=1.234)
    v0 = osc_integral(p0, 0.2, 1.1, tol=1e-12)
    v1 = osc_integral(p1, 0.2, 1.1, tol=1e-12)
    assert abs(v1) == pytest.approx(abs(v0), rel=1e-12)
    assert v1 == pytest.approx(v0 * np.exp(1.234j), abs=1e-11)


def test_negated_phase_conjugates():
    rng = np.random.default_rng(3)
    for _ in range(20):
        cs = tuple(rng.uniform(-50, 50, 4))
        v = osc_integral(PhasePoly(cs), -1.0, 0.5, tol=1e-12)
        w = osc_integral(PhasePoly(tuple(-c for c in cs)), -1.0, 0.5, tol=1e-12)
        assert w == pytest.approx(np.conj(v), abs=1e-11)


def test_degree_cap():
    with pytest.raises(ValueError):
        PhasePoly(tuple(np.ones(MAX_DEGREE + 1)))


def test_sublevel_exact_linear():
    p = PhasePoly((1.0,))
    assert sublevel_measure(p, -0.5, 0.5, 0.3) == pytest.approx(0.6, abs=1e-12)
    assert sublevel_measure(p, -0.5, 0.5, 10.0) == pytest.approx(1.0, abs=1e-12)


def test_sublevel_exact_quadratic():
    # |t^2| <= 1/4 on (-1, 1) has measure exactly 1
    p = PhasePoly((0.0, 1.0))
    assert sublevel_measure(p, -1.0, 1.0, 0.25) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_sublevel_matches_grid_count(seed):
    rng = np.random.default_rng(seed)
    deg = int(rng.integers(1, 5))
    p = PhasePoly(tuple(rng.uniform(-3, 3, deg)), constant=rng.uniform(-1, 1))
    a, b = -1.0, 1.5
    delta = 10.0 ** rng.uniform(-1.5, 0.0)
    ts = np.linspace(a, b, 2_000_001)
    brute = (b - a) * np.mean(np.abs(p(ts)) <= delta)
    assert sublevel_measure(p, a, b, delta) == pytest.approx(brute, abs=1e-4)


def test_vdc_oracle_at_lambda_100():
    rep = vdc_bound_check(PhasePoly((0.0, 100.0)), 0.0, 1.0)
    exact = abs(fresnel_reference(100.0))
    assert rep.measured == pytest.approx(exact, rel=1e-8)
    assert rep.measured <= rep.bound_rhs
    assert rep.ratio <= 2.0


def test_vdc_rejects_constant_term():
    with pytest.raises(ValueError):
        vdc_bound_check(PhasePoly((0.0, 100.0), constant=1.0), 0.0, 1.0)


@pytest.mark.parametrize("seed", range(8))
def test_vinogradov_bound_holds(seed):
    rng = np.random.default_rng(100 + seed)
    deg = int(rng.integers(2, 6))
    cs = np.sign(rng.standard_normal(deg)) * 10.0 ** rng.uniform(-1, 3, deg)
    p = PhasePoly(tuple(cs))
    delta = 10.0 ** rng.uniform(-3, 0)
    rep = vinogradov_check(p, -1.0, 1.0, delta, grid_points=20_000)
    assert rep.measured <= rep.bound_rhs * (1.0 + 1e-12)
    assert rep.measured <= rep.details["alternate_bound"] * (1.0 + 1e-12)
    assert np.isfinite(rep.ratio)


def test_vinogradov_scaling_in_delta():
    # halving delta must not increase the sublevel measure
    p = PhasePoly((0.3, -2.0, 1.1))
    meas = [vinogradov_check(p, -1.0, 1.0, 10.0 ** e, grid_points=50_000).measured
            for e in (-0.5, -1.0, -2.0)]
    assert meas[0] >= meas[1] >= meas[2]


def test_quadrature_path_has_no_matrix_products():
    # a threaded BLAS product of exponentials and weights kept a second core
    # busy; the rule pair is applied by elementwise multiply and add
    tree = ast.parse(inspect.getsource(oscillatory))
    blas = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum"}
    assert not [n for n in ast.walk(tree) if isinstance(n, ast.MatMult)
                or isinstance(n, ast.Attribute) and n.attr in blas]


class _PanelCount:
    """Wraps oscillatory._kronrod to record how many panels each call held."""

    def __init__(self, monkeypatch):
        self.sizes = []
        inner = oscillatory._kronrod

        def counted(p, lo, hi):
            self.sizes.append(len(lo))
            return inner(p, lo, hi)

        monkeypatch.setattr(oscillatory, "_kronrod", counted)


def test_tolerance_below_the_rounding_floor_fails_early(monkeypatch):
    # a phase of size 3e5 leaves a rounding floor near 5e-10 on [0, 1]; tol
    # 1e-12 used to refine to about a million panels before failing
    count = _PanelCount(monkeypatch)
    with pytest.raises(QuadratureError):
        osc_integral(PhasePoly((0.0, 3e5)), 0.0, 1.0, tol=1e-12)
    assert sum(count.sizes) <= 1 << 18


def test_tight_profile_window_stays_within_a_panel_budget(monkeypatch):
    # at tol 1e-13 the large shells of a d = 2 window ask for less than
    # rounding resolves; each used to refine to the panel cap, all at once
    count = _PanelCount(monkeypatch)
    prof = g_profile(np.array([0.9, 0.4]), tol=1e-13)
    assert max(count.sizes) <= 1 << 17
    assert prof.envelope_only
