import ast
import inspect
import re

import numpy as np
import pytest
from scipy import special

from curvemax import oscillatory
from curvemax.curve_measure import mu_hat, sigma_hat, sigma_hat_dyadics
from curvemax.multiplier import g_profile, nu_hat
from curvemax.norms import _annulus_point
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
    # one bad entry of a per-k tolerance
    "sigma_hat_dyadics-per-k": lambda tol: sigma_hat_dyadics(
        (0.7, 1.3), (0, 1, 2), [1e-6, tol, 1e-6]),
    "sigma_hat_dyadics-per-k-zero": lambda tol: sigma_hat_dyadics(
        (0.0, 0.0), (0, 1, 2), [1e-6, tol, 1e-6]),
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
    # a midpoint grid of n cells errs by at most (sign changes + 2) cells
    rng = np.random.default_rng(seed)
    deg = int(rng.integers(1, 5))
    p = PhasePoly(tuple(rng.uniform(-3, 3, deg)), constant=rng.uniform(-1, 1))
    a, b, n = -1.0, 1.5, 2_000_000
    delta = 10.0 ** rng.uniform(-1.5, 0.0)
    inside = np.abs(p(a + (np.arange(n) + 0.5) * (b - a) / n)) <= delta
    brute = np.count_nonzero(inside) * (b - a) / n
    changes = np.count_nonzero(inside[1:] != inside[:-1])
    assert abs(sublevel_measure(p, a, b, delta) - brute) <= (
        (b - a) * (changes + 2) / n)


@pytest.mark.parametrize("delta", [1e-6, 1e-3, 0.1])
def test_sublevel_at_a_tangency(delta):
    # p = delta - (t - 0.3)^2 touches delta at 0.3 and meets -delta at
    # 0.3 +- sqrt(2 delta)
    p = PhasePoly((0.6, -1.0), constant=delta - 0.09)
    assert sublevel_measure(p, -1.0, 1.0, delta) == pytest.approx(
        2.0 * np.sqrt(2.0 * delta), rel=1e-10)


def test_sublevel_near_double_root_pair():
    # p + 1 = 1e20 t^2 - 1 has roots +-1e-10, p - 1 has roots +-sqrt(3) 1e-10:
    # the set is two intervals of width (sqrt(3) - 1) 1e-10 around a gap
    p = PhasePoly((0.0, 1e20), constant=-2.0)
    assert sublevel_measure(p, -1.0, 1.0, 1.0) == pytest.approx(
        2.0 * (np.sqrt(3.0) - 1.0) * 1e-10, rel=1e-12)


def test_sublevel_at_delta_zero():
    # the zero set of a nonzero polynomial has measure 0
    assert sublevel_measure(PhasePoly((1.0, -2.0), constant=0.1), -1.0, 1.0,
                            0.0) == 0.0


@pytest.mark.parametrize("p, delta, expected", [
    (PhasePoly(()), 0.5, 2.0),
    (PhasePoly((0.0, 0.0)), 0.0, 2.0),
    (PhasePoly((), constant=0.5), 0.5, 2.0),
    (PhasePoly((), constant=-0.5), 0.4, 0.0),
    (PhasePoly((0.0, 0.0, 0.0), constant=0.25), 0.3, 2.0),
    (PhasePoly((0.0, 0.0, 0.0), constant=0.25), 0.2, 0.0),
])
def test_sublevel_of_constant_polynomials(p, delta, expected):
    assert sublevel_measure(p, -1.0, 1.0, delta) == expected



def test_roots_are_numpys_polyroots():
    # the companion-matrix roots bit for bit, at every degree and with top
    # zeros to trim; none for a constant or the zero polynomial
    rng = np.random.default_rng(37)
    poly = np.polynomial.polynomial
    for deg in range(1, MAX_DEGREE + 1):
        c = rng.standard_normal(deg + 1) * 10.0 ** rng.uniform(-3, 3, deg + 1)
        c[rng.random(deg + 1) < 0.2] = 0.0
        c[-1] = rng.choice([1.0, -2.5])
        for cs in (c, np.append(c, [0.0, -0.0])):
            ours, numpys = oscillatory._roots(cs), poly.polyroots(cs)
            assert ours.dtype == numpys.dtype
            assert ours.tobytes() == numpys.tobytes()
    for cs in ([3.0], [3.0, 0.0], [0.0, -0.0]):
        assert oscillatory._roots(np.array(cs)).size == 0
        assert poly.polyroots(cs).size == 0


def test_horner_on_a_coefficient_stack_is_numpys_polyval():
    # two polynomials as the columns of one stack, as sublevel_measure
    # evaluates p - delta and p + delta
    rng = np.random.default_rng(41)
    t = np.concatenate([rng.uniform(-2.0, 2.0, 50), [0.0, -0.0, 1.0, -1.0]])
    for deg in (0, 1, 2, 7, MAX_DEGREE):
        c = (rng.standard_normal((deg + 1, 2))
             * 10.0 ** rng.uniform(-3.0, 3.0, (deg + 1, 2)))
        ours = oscillatory._horner(c[:, :, None], t)
        assert ours.tobytes() == np.polynomial.polynomial.polyval(
            t, c).tobytes()

@pytest.mark.parametrize("delta", [1e-3, 0.5])
def test_sublevel_at_max_degree(delta):
    # |t^64| <= delta on [-1, 1] is |t| <= delta^(1/64)
    p = PhasePoly((0.0,) * (MAX_DEGREE - 1) + (1.0,))
    assert sublevel_measure(p, -1.0, 1.0, delta) == pytest.approx(
        2.0 * delta ** (1.0 / MAX_DEGREE), abs=1e-12)


def _sublevel_mpmath(p: PhasePoly, a: float, b: float, delta: float) -> float:
    """The sublevel measure from 50-digit roots and 50-digit midpoint tests."""
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(50):
        full = [mp.mpf(c) for c in p.full_coeffs()]
        cuts = [mp.mpf(a), mp.mpf(b)]
        for shift in (-delta, delta):
            c = [full[0] + shift] + full[1:]
            for r in mp.polyroots(c[::-1], maxsteps=200, extraprec=200):
                r = mp.mpc(r)
                if abs(r.imag) <= mp.mpf(10) ** -40 and a < r.real < b:
                    cuts.append(r.real)
        cuts = sorted(cuts)
        total = mp.mpf(0)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            if abs(mp.polyval(full[::-1], (lo + hi) / 2)) <= delta:
                total += hi - lo
        return float(total)


@pytest.mark.parametrize("seed", range(12))
def test_sublevel_against_mpmath_roots(seed):
    rng = np.random.default_rng(500 + seed)
    deg = int(rng.integers(1, 9))
    cs = np.sign(rng.standard_normal(deg)) * 10.0 ** rng.uniform(-1, 3, deg)
    p = PhasePoly(tuple(cs), constant=rng.uniform(-3.0, 3.0))
    delta = 10.0 ** rng.uniform(-3, 0)
    assert sublevel_measure(p, -1.0, 1.0, delta) == pytest.approx(
        _sublevel_mpmath(p, -1.0, 1.0, delta), abs=1e-12)


@pytest.mark.parametrize("a, b, delta", [
    (-1.0, 1.0, np.nan), (-1.0, 1.0, np.inf), (-1.0, 1.0, -0.1),
    (1.0, -1.0, 0.5), (0.5, 0.5, 0.5),
    (-1.0, np.inf, 0.5), (np.nan, 1.0, 0.5), (-np.inf, 1.0, 0.5),
])
def test_sublevel_rejects_out_of_domain(a, b, delta):
    p = PhasePoly((1.0, -2.0), constant=0.1)
    with pytest.raises(ValueError):
        sublevel_measure(p, a, b, delta)
    with pytest.raises(ValueError):
        vinogradov_check(p, a, b, delta)


@pytest.mark.parametrize("d", [2, 3, 6, 11])
@pytest.mark.parametrize("c", [1e-8, -1e-12, 10.0 ** -15.75, -1e-17, 1e-20])
def test_sublevel_with_a_tiny_top_coefficient(d, c):
    # |t + c t^d| <= 1/2 on [-1, 1] is the interval between the roots of
    # t + c t^d = -+1/2, which sit at -+1/2 - c (-+1/2)^d + O(c^2); a top
    # coefficient this small against b_1 makes companion roots lose or shift
    # the cuts unless they are rescaled, trimmed and Newton-refined
    p = PhasePoly((1.0,) + (0.0,) * (d - 2) + (c,))
    assert sublevel_measure(p, -1.0, 1.0, 0.5) == pytest.approx(
        1.0 - c * (0.5 ** d - (-0.5) ** d), abs=1e-14)


def test_sublevel_when_the_top_coefficient_would_overflow_the_companion():
    # 1e10 / 1e-300 overflows; |1e10 t + 1e-300 t^2| <= 1/2 is |t| <= 5e-11
    p = PhasePoly((1e10, 1e-300))
    assert sublevel_measure(p, -1.0, 1.0, 0.5) == pytest.approx(1e-10,
                                                                 rel=1e-14)
    assert sublevel_measure(p, -1e5, 1e5, 0.5) == pytest.approx(1e-10,
                                                                rel=1e-14)


def test_sublevel_weighs_coefficients_on_the_interval():
    # 1e-30 t^10 is negligible next to 1 at |t| = 1 but reaches 1 at |t| =
    # 1e3: |1 + 1e-30 t^10| <= 2 on [-1e5, 1e5] is |t| <= 1e3
    p = PhasePoly((0.0,) * 9 + (1e-30,), constant=1.0)
    assert sublevel_measure(p, -1e5, 1e5, 2.0) == pytest.approx(2e3,
                                                                rel=1e-12)


def test_sublevel_reads_signs_from_the_shifted_polynomials():
    # 1 + 1e-17 t rounds to 1 on [-1, 1], but 1 + 1e-17 t - 1 = 1e-17 t is
    # exact, and |p| <= 1 holds exactly for t <= 0
    p = PhasePoly((1e-17,), constant=1.0)
    assert sublevel_measure(p, -1.0, 1.0, 1.0) == 1.0


def test_vinogradov_at_delta_zero():
    # both sides are 0, so the bound holds with ratio 0, not 0 / 0 = inf
    rep = vinogradov_check(PhasePoly((0.0, 1.0)), -1.0, 1.0, 0.0)
    assert rep.measured == 0.0 and rep.bound_rhs == 0.0
    assert rep.ratio == 0.0


@pytest.mark.parametrize("p", [PhasePoly((0.0, 0.0), constant=1.0),
                               PhasePoly((), constant=1.0), PhasePoly((0.0,))])
def test_vinogradov_rejects_a_constant_phase(p):
    with pytest.raises(ValueError, match="nonconstant"):
        vinogradov_check(p, -1.0, 1.0, 0.5)


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
    rep = vinogradov_check(p, -1.0, 1.0, delta)
    assert rep.measured <= rep.bound_rhs * (1.0 + 1e-12)
    assert np.isfinite(rep.ratio)


def test_vinogradov_scaling_in_delta():
    # halving delta must not increase the sublevel measure
    p = PhasePoly((0.3, -2.0, 1.1))
    meas = [vinogradov_check(p, -1.0, 1.0, 10.0 ** e).measured
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
    # 1e-12 used to refine to about a million panels before failing.  Away
    # from a stationary point the expansion now takes the phase, so a linear
    # phase needs no panel and 3e5 t^2 on [0, 1] meets tol; a stationary
    # point where the phase is 7.5e4, here that of 3e5 (t^2 - t) at 1/2,
    # still leaves its panels below the floor
    count = _PanelCount(monkeypatch)
    b = 3e5
    val = osc_integral(PhasePoly((b,)), 0.0, 1.0, tol=1e-12)
    assert abs(val - (np.exp(1j * b) - 1.0) / (1j * b)) <= 1e-12
    assert sum(count.sizes) == 0
    val = osc_integral(PhasePoly((0.0, b)), 0.0, 1.0, tol=1e-12)
    assert abs(val - fresnel_reference(b)) <= 1e-12
    count.sizes.clear()
    with pytest.raises(QuadratureError):
        osc_integral(PhasePoly((-b, b)), 0.0, 1.0, tol=1e-12)
    assert sum(count.sizes) <= 1 << 18


def test_tight_profile_window_stays_within_a_panel_budget(monkeypatch):
    # at tol 1e-13 the large shells of a d = 2 window ask for less than
    # rounding resolves; each used to refine to the panel cap, all at once
    count = _PanelCount(monkeypatch)
    prof = g_profile(np.array([0.9, 0.4]), tol=1e-13)
    assert max(count.sizes) <= 1 << 17
    assert prof.envelope_only


class _Pieces:
    """Wraps oscillatory._expand to record each piece it takes: (phase, a,
    b, value, certified error)."""

    def __init__(self, monkeypatch):
        self.taken = []
        inner = oscillatory._expand

        def recorded(p, series, lo, hi, share):
            took, hope, values, errors = inner(p, series, lo, hi, share)
            if took.any():
                self.taken += zip([p] * len(values), lo[took], hi[took],
                                  values, errors)
            return took, hope, values, errors

        monkeypatch.setattr(oscillatory, "_expand", recorded)


def _mp_integral(p: PhasePoly, a: float, b: float) -> complex:
    """int_a^b exp(i p) by mpmath quad at 30 digits, on subintervals of
    about 16 pi of phase."""
    mp = pytest.importorskip("mpmath").mp
    span = np.abs(np.diff(p(np.linspace(a, b, 2001)))).sum()
    with mp.workdps(30):
        coeffs = [mp.mpf(c) for c in p.full_coeffs()[::-1]]
        cuts = mp.linspace(mp.mpf(a), mp.mpf(b), int(span / (16 * np.pi)) + 2)
        return complex(mp.quad(lambda t: mp.expj(mp.polyval(coeffs, t)), cuts))


# criterion 7's phases: sigma_hat at one scale k of an annulus point, at
# about criterion 7's quadrature tolerance; each (seed, k) is one whose
# pieces span the least phase, which keeps the reference cheap
_SHELLS = {2: (12, 4), 4: (34, 3), 8: (4, 2), 16: (12, 2)}


def _shell_pieces(monkeypatch, d: int):
    """Every expansion piece of the shell, with its certified error."""
    pieces = _Pieces(monkeypatch)
    seed, k = _SHELLS[d]
    sigma_hat_dyadics(_annulus_point(np.random.default_rng(seed), d), [k],
                      5e-5)
    return pieces.taken


def _misses(pieces):
    """The pieces whose value lies outside their certified error of the
    mpmath reference."""
    return [(a, b) for p, a, b, value, err in pieces
            if abs(value - _mp_integral(p, a, b)) > err]


@pytest.mark.parametrize("d", [2, 4, 8, 16])
def test_expansion_pieces_lie_within_their_certified_error(monkeypatch, d):
    pieces = _shell_pieces(monkeypatch, d)
    assert len(pieces) >= 2
    assert _misses(pieces) == []


def test_expansion_check_fails_without_the_first_remainder(monkeypatch):
    # with B_1 = 0 a piece passes at n = 1 on its rounding bound alone, and
    # the dropped remainder shows against the reference
    inner = oscillatory._majorants

    def no_first_remainder(n, m, alpha):
        out = inner(n, m, alpha)
        out[0] = 0.0
        return out

    monkeypatch.setattr(oscillatory, "_majorants", no_first_remainder)
    assert _misses(_shell_pieces(monkeypatch, 8))


def test_a_missed_root_makes_a_piece_fail_never_pass(monkeypatch):
    # p' = 6000 (t + 0.6)(t - 0.1)(t - 0.7): with no roots proposed, the
    # pieces around them fail their certificate and go to panels
    roots = np.array([-0.6, 0.1, 0.7])
    p = PhasePoly((252.0, -1230.0, -400.0, 1500.0))
    assert np.allclose(np.polynomial.polynomial.polyroots(
        p.full_coeffs()[1:] * np.arange(1, 5)), roots)
    monkeypatch.setattr(oscillatory, "_real_roots", lambda c: np.empty(0))
    pieces = _Pieces(monkeypatch)
    tol = 1e-9
    val = osc_integral(p, -1.5, 1.5, tol=tol)
    assert pieces.taken
    assert not [(a, b) for _, a, b, _, _ in pieces.taken
                if ((a <= roots) & (roots <= b)).any()]
    assert abs(val - _mp_integral(p, -1.5, 1.5)) <= tol


def test_cis_is_within_two_eps_of_the_exponential():
    # the panels' exponentials come from one tangent each; against 160-bit
    # mpmath they stay within 2 eps of e^{ix} (numpy's exp of an imaginary
    # argument reaches 0.5 eps), near the multiples of pi/2 too, where
    # 1 - t^2 cancels or t is large
    mp = pytest.importorskip("mpmath").mp
    rng = np.random.default_rng(0)
    quarters = 0.5 * np.pi * np.arange(-8, 9)[:, None]
    x = np.concatenate([
        rng.uniform(-4.0, 4.0, 2000),
        rng.choice([-1.0, 1.0], 2000) * 10.0 ** rng.uniform(-3.0, 12.0, 2000),
        (quarters + rng.uniform(-1e-6, 1e-6, (17, 60))).ravel(),
        [0.0, -0.0, 1e-300, 1e12, -1e12, np.pi, -np.pi]])
    c, s = oscillatory._cis(x)
    with mp.workprec(160):
        err = max(abs(mp.mpc(cr, sr) - mp.expj(mp.mpf(xr)))
                  for xr, cr, sr in zip(x.tolist(), c.tolist(), s.tolist()))
    assert err <= 2.0 * np.finfo(float).eps
    assert oscillatory._cis(x[:10].reshape(2, 5)).shape == (2, 2, 5)


def test_rounding_only_estimates_stay_below_half_the_floor():
    # on panels with under 1e-4 of phase variation the K15 and G7 errors are
    # far below rounding, so |K15 - G7| is rounding alone; _rounding_floor
    # stops refinement only above twice that
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(12):
        deg = int(rng.integers(1, 17))
        coeffs = (rng.choice([-1.0, 1.0], deg)
                  * 10.0 ** rng.uniform(-1.0, 3.0, deg))
        p = PhasePoly(tuple(coeffs), constant=rng.uniform(-10.0, 10.0))
        c = rng.uniform(-1.5, 1.5, 20_000)
        slope = np.abs(oscillatory._horner(
            p.full_coeffs()[1:] * np.arange(1.0, deg + 1), c))
        half = 0.5e-4 / np.maximum(slope, 1.0) * rng.uniform(0.05, 1.0, len(c))
        lo, hi = c - half, c + half
        flat = np.abs(p(hi) - p(lo)) < 1e-4
        _, errs = oscillatory._kronrod(p, lo[flat], hi[flat])
        ratio = errs / oscillatory._rounding_floor(p, lo[flat], hi[flat])
        worst = max(worst, ratio.max())
    assert worst < 0.5
