import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from curvemax import acceptance, curve_measure, multiplier
from curvemax.curve_measure import (dyadic_phase_size, sigma_hat_dyadics,
                                   _decay_prefactor, _lipschitz_coeffs,
                                   _lipschitz_size)
from curvemax.multiplier import (g_profile, induction_diagnostics, nu_hat,
                                 sup_search, _difference_bound, _entries,
                                 _lower_tail_sq, _upper_tail_sq, _window_edge,
                                 _window_entries)
from curvemax.norms import _annulus_point, dilate, rho
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


@pytest.mark.parametrize("k", [-3000, -1100, -1060, -1030, -200])
def test_nu_hat_far_below_the_window(k):
    # the shells of the batched quadrature are 2^{k - k0} wide and would
    # leave double range here; the Lipschitz bound settles sigma_hat = 1
    assert abs(nu_hat((1.0, 1.0), k)) <= 1e-10


@pytest.mark.parametrize("k", [1022, 1023, 1024, 1100, 5000])
def test_linear_phase_entry_vanishes_past_the_double_range(k):
    # pi 2^{k+1} |xi_1| overflows, so sinc was nan (a QuadratureError from
    # k = 1022 on) and 2^k rho ended in math.ldexp's OverflowError from 1024
    assert nu_hat((1.0,), k) == 0.0
    assert nu_hat((-3.0, 0.0), k) == 0.0


@pytest.mark.parametrize("k", [600, 1023, 1024, 1100])
def test_general_entry_past_the_double_range_is_beyond_quadrature(k):
    with pytest.raises(QuadratureError, match=f"k = {k}"):
        nu_hat((1.0, 1.0), k)


def _kernel_hat(ks, rho_xi):
    """exp(-2^k rho_xi) over the scales ks, 0 where 2^k rho_xi overflows."""
    with np.errstate(over="ignore"):
        return np.exp(-np.ldexp(rho_xi, np.asarray(ks)))


def test_poisson_entry_vanishes_where_its_scale_overflows(monkeypatch):
    # with the shell transform set to 0, an entry is minus the kernel term
    # that _entries subtracts
    monkeypatch.setattr(multiplier, "PRACTICAL_PANEL_CAP", math.inf)
    monkeypatch.setattr(multiplier, "_shells",
                        lambda vec, ks, tol, rho_vec, top_log: np.zeros(len(ks)))

    def kernel(ks, rho_xi):
        values = _entries(np.array([1.0, 1.0]), np.array(ks), rho_xi, 1e-3)[0]
        assert values.tolist() == (-_kernel_hat(ks, rho_xi)).tolist()
        return (-values.real).tolist()

    assert kernel([1023, 1024], 1.0) == [0.0, 0.0]
    assert kernel([5000], 1e-300) == [0.0]
    assert kernel([0], 1.0) == [math.exp(-1.0)]


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
    # each floor is at most its modulus and both sums take the same order,
    # so the floors' l2 cannot pass g, with envelope floors of 0 or with
    # every floor equal to its modulus (a linear phase)
    for seed in range(3):
        for d in (8, 16):
            prof = g_profile(_annulus_input(d, seed), tol=1e-3)
            assert prof.envelope_only
            assert prof.g_lower <= prof.g_value
    linear = g_profile(np.array([0.7, 0.0, 0.0]), tol=1e-3)
    assert linear.g_lower == linear.g_value


# nonzero coordinates in [-8, 8], kept off zero so the windows stay short
_COORD = st.one_of(st.floats(1e-3, 8.0), st.floats(-8.0, -1e-3))


@settings(deadline=None, max_examples=25)
@given(xi=st.lists(_COORD, min_size=1, max_size=4))
def test_bracket_and_dilation_invariance_property(xi):
    a = g_profile(np.array(xi), tol=2e-3)
    b = g_profile(dilate(np.array(xi), 2.0), tol=2e-3)
    assert a.g_lower <= a.g_value
    assert b.g_lower <= b.g_value
    # criterion 6's allowance: g is delta_2-invariant up to the two tails
    assert abs(a.g_value - b.g_value) <= a.tail_bound + b.tail_bound


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


@pytest.mark.parametrize("d", [0, -1, 65, 2.5])
def test_sup_search_rejects_a_dimension_outside_the_cap(d):
    # d = 0 drew empty directions forever; -1 and 65 ended in an error
    # about the stream family that did not name the dimension, 2.5 in a
    # TypeError
    with pytest.raises(ValueError, match=rf"\[1, 64\], got {d}$"):
        sup_search(d, budget=10, tol=2e-3)


def test_growth_table_monotone_and_fits():
    table = acceptance.run("log-growth", quick=True, d_list=(1, 2, 4),
                           budget=120, ind_dims=(), per_dim=0).details
    sups = [r["sup_estimate"] for r in table["rows"]]
    assert sups == sorted(sups)
    assert all(np.isfinite(s) for s in sups)
    assert all(r["g_lower"] <= r["sup_g_lower"] <= r["sup_estimate"]
               for r in table["rows"])
    assert np.isfinite(table["fit_slope"])
    # the second slope fits the rows' sup_g_lower the same way
    x = np.log(np.array([1.0, 2.0, 4.0]) + 1.0)
    lowers = [r["sup_g_lower"] for r in table["rows"]]
    slope, intercept = np.polyfit(x, lowers, 1)
    assert (table["fit_slope_lower"], table["fit_intercept_lower"]) == (
        slope, intercept)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -2e-3, 1.0, 5.0])
@pytest.mark.parametrize("func", [g_profile, induction_diagnostics],
                         ids=["g_profile", "induction_diagnostics"])
def test_tolerance_outside_unit_interval_is_rejected(func, tol):
    # induction_diagnostics took nan to an infinite far tail and a negative
    # tol to a near term of 5.88
    with pytest.raises(ValueError, match=r"tol must lie in \(0, 1\)"):
        func(np.array([0.7, 1.3]), tol=tol)


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


@pytest.mark.parametrize("xi", [[1e200, 1.0], [1e300, 1e-300],
                                [1e300, 1e150, 1e-300, 1e-300]])
def test_induction_terms_at_extreme_magnitudes(xi):
    # Python's complex abs of a nan entry read a stale errno, left at ERANGE
    # by an underflowing ldexp in the quadrature, and raised OverflowError
    diag = induction_diagnostics(np.array(xi), tol=2e-3)
    assert diag.envelope_ks
    terms = (diag.term_far, diag.term_near, diag.term_far_tail,
             diag.term_near_tail)
    assert all(math.isfinite(t) and t >= 0.0 for t in terms)



def _three_pass_induction(xi, tol):
    """(term_far, term_near, envelope_ks) from three engine passes, far xi,
    near xi and near y, each window through _window_entries."""
    xi = np.asarray(xi, dtype=float)
    rho_xi, half = float(rho(xi)), len(xi) // 2
    y = xi.copy()
    y[half:] = 0.0
    rho_y = float(rho(y)) if np.any(y) else 0.0
    top = np.abs(xi[half:]) ** (1.0 / np.arange(half + 1, len(xi) + 1))
    k_split = math.floor(math.log2(1.0 / float(np.max(top))))
    k_hi, _ = _window_edge(
        lambda ks: _upper_tail_sq(_decay_prefactor(xi), rho_xi, ks),
        k_split + 1, 1, tol, "far")
    far_ks = range(k_split + 1, k_hi + 1)
    zs, mags, _, _ = _window_entries(xi, far_ks, rho_xi, tol)
    k_lo, _ = _window_edge(
        lambda ks: _lower_tail_sq(xi, rho_xi - rho_y, half, ks), k_split, -1,
        tol, "near")
    near_ks = np.arange(k_lo, k_split + 1)
    zx, vx, _, _ = _window_entries(xi, near_ks, rho_xi, tol)
    zy, vy, _, _ = _window_entries(y, near_ks, rho_y, tol)
    apart = np.isnan(zx) | np.isnan(zy)
    b = _difference_bound(xi, rho_xi - rho_y, half, near_ks)
    ws = np.where(apart, np.minimum(np.minimum(4.0, vx + vy), b),
                  np.abs(zx - zy))
    envelope = ([k for k, z in zip(far_ks, zs) if np.isnan(z)]
                + near_ks[apart].tolist())
    return (float(np.sqrt(np.sum(mags**2))), float(np.sqrt(np.sum(ws**2))),
            tuple(envelope))


_INDUCTION_POINTS = [
    _annulus_point(np.random.default_rng([43, d, i]), d).tolist()
    for d in (2, 4, 8, 16) for i in range(4)] + [
    [1e200, 1.0], [1e300, 1e-300], [1e300, 1e150, 1e-300, 1e-300],
    [30.0, 1e-4], [20.0, -3.0, 1e-3, 1e-5]]     # large phases below A


@pytest.mark.parametrize("tol", [2e-3, 1e-5, 1e-7])
@pytest.mark.parametrize("xi", _INDUCTION_POINTS)
def test_induction_matches_three_engine_passes(xi, tol):
    # one engine pass over both windows of xi, each shell at its window's
    # tolerance, gives the three-pass terms bit for bit; at tol 1e-5 and
    # 1e-7 some of these terms move if a window takes the other's tolerance
    diag = induction_diagnostics(np.array(xi), tol=tol)
    far, near, envelope = _three_pass_induction(xi, tol)
    assert diag.term_far.hex() == far.hex()
    assert diag.term_near.hex() == near.hex()
    assert diag.envelope_ks == envelope

def test_induction_terms_bounded_on_sample():
    rng = np.random.default_rng(21)
    for d in (2, 4):
        for _ in range(5):
            xi = rng.standard_normal(d) * 10.0 ** rng.uniform(-1, 2)
            diag = induction_diagnostics(xi, tol=5e-3)
            assert diag.term_far + diag.term_far_tail < 100.0
            assert diag.term_near + diag.term_near_tail < 100.0


def test_near_term_envelope_fallback_bounds_the_difference():
    # k_split = 19; at k = 13..19 the phase of xi is past the profile's
    # panel cap, so each near entry falls back to the sum of the moduli of
    # nu_hat(xi) (its envelope) and nu_hat(y), or to the difference bound
    # b(k) where smaller, which must still bound the difference that
    # quadrature at a tighter tolerance reaches
    xi, y = np.array([1.0, 1e-12]), np.array([1.0, 0.0])
    diag = induction_diagnostics(xi, tol=2e-3)
    near = np.arange(13, 20)
    assert set(near.tolist()) <= set(diag.envelope_ks)
    diff = [sigma_hat_dyadics(v, near, 1e-6) - _kernel_hat(near, rho(v))
            for v in (xi, y)]
    assert diag.term_near >= math.sqrt(np.sum(np.abs(diff[0] - diff[1]) ** 2))


def test_near_term_fallback_is_capped_by_the_difference_bound(monkeypatch):
    # with quadrature off every near pair falls back, and each fallback is
    # at most b(k) = 2^k (rho(xi) - rho(y)) + L_2 |xi_2| 4^k, the bound on
    # |nu_hat(xi) - nu_hat(y)| that _lower_tail_sq derives; the sum of the
    # moduli alone gave a near term of 2.88 here, against an l2 of 1.57
    monkeypatch.setattr(multiplier, "PRACTICAL_PANEL_CAP", -1)
    xi = np.array([1.0, 1e-6])
    diag = induction_diagnostics(xi, tol=2e-3)
    ks = np.arange(-200, math.floor(math.log2(diag.threshold)) + 1)
    b = (np.ldexp(rho(xi) - rho([1.0, 0.0]), ks)
         + _lipschitz_coeffs(2)[1] * np.ldexp(1e-6, 2 * ks))
    assert diag.term_near <= math.sqrt(np.sum(b * b)) * (1.0 + 1e-12)


@pytest.mark.parametrize("d", [2, 4, 8])
def test_entry_floors_are_certified_lower_bounds(d):
    # quadrature floors lie below |nu_hat| from a tighter quadrature,
    # envelope floors are 0, and g_lower is the l2 of the floors
    xi = _annulus_input(d, seed=2)
    prof = g_profile(xi, tol=2e-3)
    ks = np.asarray(prof.window.ks())
    _, _, floors = _entries(xi, ks, rho(xi), prof.quad_tol)
    env = np.isin(ks, prof.envelope_only)
    assert env.any() and floors[env].tolist() == [0.0] * np.sum(env)
    quad = ks[~env]
    ref = np.abs(sigma_hat_dyadics(xi, quad, 1e-9) - _kernel_hat(quad, rho(xi)))
    assert not np.isnan(ref).any() and np.all(floors[~env] <= ref + 1e-9)
    assert prof.g_lower == pytest.approx(math.sqrt(np.sum(floors**2)),
                                         rel=1e-12)


def test_entry_floors_of_a_linear_phase_are_the_moduli():
    # the closed form over a window, against its one-k expression; its
    # floors are its moduli
    xi = np.array([0.7, 0.0, 0.0])
    ks = np.arange(-60, 60)
    values, mags, floors = _entries(xi, ks, rho(xi), 1e-4)
    eta = np.array([math.ldexp(0.7, k) for k in ks.tolist()])
    ref = 2.0 * np.sinc(2.0 * eta) - np.sinc(eta) - _kernel_hat(ks, rho(xi))
    assert values.tolist() == ref.tolist()
    assert floors.tolist() == mags.tolist() == np.abs(ref).tolist()


@pytest.mark.parametrize("d", [2, 8, 16])
def test_lipschitz_sums_do_not_grow_with_the_window(d, monkeypatch):
    # each window edge takes its tail over all its scales in one call, so a
    # profile's Lipschitz sums (its lower tails, its near-term cap and the
    # settle rule of each quadrature window) are as many at any width
    calls = []

    def counted(*args):
        calls.append(args)
        return _lipschitz_size(*args)

    monkeypatch.setattr(multiplier, "_lipschitz_size", counted)
    monkeypatch.setattr(curve_measure, "_lipschitz_size", counted)
    xi, tols = _annulus_input(d), (1e-2, 1e-4, 1e-6)
    for evaluate in (g_profile, induction_diagnostics):
        counts = set()
        for tol in tols:
            calls.clear()
            evaluate(xi, tol=tol)
            counts.add(len(calls))
        assert len(counts) == 1, evaluate.__name__
    assert len({len(g_profile(xi, tol=tol).values) for tol in tols}) == 3


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


def test_profile_at_the_top_of_double_range():
    # L_1 xi_1 overflowed to inf, so the lower tail never closed
    far = g_profile(np.array([1.7e308]))
    near = g_profile(np.array([math.ldexp(1.7e308, -1023)]))
    assert far.g_value == near.g_value
    assert far.g_value == pytest.approx(1.37069, abs=1e-5)
    assert far.window.k_min == near.window.k_min - 1023


@pytest.mark.parametrize("xi", [[0.0, 5e-324], [5e-324, 0.0]])
def test_profile_rejects_subnormal_coordinates(xi):
    with pytest.raises(ValueError, match="4.94e-324 is subnormal"):
        g_profile(np.array(xi))


def _annulus_input(d, seed=0):
    """A fixed frequency with rho = 1.5."""
    v = np.random.default_rng([seed, d]).standard_normal(d)
    return dilate(v, 1.5 / rho(v))


@pytest.mark.parametrize("xi", [np.array([0.9, 0.4])]
                         + [_annulus_input(d) for d in (4, 8, 16)],
                         ids=["d=2", "d=4", "d=8", "d=16"])
def test_profile_entries_are_nu_hat(xi):
    # a window's entries come from one batched quadrature call and nu_hat's
    # from a call of their own: a shell must not depend on its batch
    prof = g_profile(xi, tol=1e-3)
    assert prof.envelope_only
    for k, val in zip(prof.window.ks(), prof.values):
        if k in prof.envelope_only:
            with pytest.raises(QuadratureError):
                nu_hat(xi, k, tol=prof.quad_tol)
        else:
            assert val == np.abs(nu_hat(xi, k, tol=prof.quad_tol))


def _entry_by_quadpack(xi, k):
    """|sigma_hat(delta_{2^k} xi) - exp(-2^k rho(xi))| through
    scipy.integrate.quad over both shell halves, and quad's error estimate."""
    eta = dilate(xi, 2.0 ** k)
    phase = np.polynomial.Polynomial(
        np.concatenate([[0.0], -2.0 * math.pi * eta]))
    total, err = 0.0, 0.0
    for a, b in ((0.5, 1.0), (-1.0, -0.5)):
        for part, unit in ((math.cos, 1.0), (math.sin, 1j)):
            val, e = integrate.quad(lambda t: part(phase(t)), a, b,
                                    epsabs=1e-13, epsrel=0.0, limit=400)
            total += unit * val
            err += e
    return abs(total - math.exp(-(2.0 ** k) * float(rho(xi)))), err


@pytest.mark.parametrize("xi", [_annulus_input(d, seed=1) for d in range(2, 17)]
                         + [dilate(_annulus_input(5, seed=1), 2.0)],
                         ids=[f"d={d}" for d in range(2, 17)] + ["d=5,dilated"])
def test_profile_entries_against_quadpack(xi):
    prof = g_profile(xi, tol=2e-3)
    checked = 0
    for k, val in zip(prof.window.ks(), prof.values):
        bound = 2.0 * math.pi * float(np.sum(np.abs(dilate(xi, 2.0 ** k))))
        if k in prof.envelope_only or bound > 60.0:
            continue
        ref, err = _entry_by_quadpack(xi, k)
        assert abs(val - ref) <= prof.quad_tol + err, k
        checked += 1
    assert checked


def test_lower_tail_is_the_weighted_phase_size_on_criterion_6_inputs(
        monkeypatch):
    # the tail's Lipschitz sum is shared with sigma_hat_dyadics' settle rule;
    # on criterion 6's profiles it must still be the weighted one-scale sum
    seen = []
    true_profile = acceptance.g_profile

    def recorded(xi, tol):
        prof = true_profile(xi, tol=tol)
        seen.append(prof)
        return prof

    monkeypatch.setattr(acceptance, "g_profile", recorded)
    acceptance.run("multiplier-profile", seed=0, quick=True)
    assert len(seen) > 10
    for prof in seen:
        xi = np.asarray(prof.xi)
        rho_xi = float(rho(xi))
        for j_lo in {0, len(xi) // 2}:
            weighted = _lipschitz_coeffs(len(xi)) * xi
            weighted[:j_lo] = 0.0
            ks = np.arange(prof.window.k_min - 3, prof.window.k_max + 1)
            ref = []
            for k in ks.tolist():
                b = math.ldexp(rho_xi, k - 1) + dyadic_phase_size(weighted,
                                                                  k - 1)
                ref.append((4.0 / 3.0) * (b * b))
            # the whole range in one call, bit for bit
            assert _lower_tail_sq(xi, rho_xi, j_lo, ks).tolist() == ref


def _upper_tail_rule(g_decay, rho_xi, k):
    """The one-scale rule of the upper tail: inf where G 2^{-k-1} overflows
    or either bound on the next entry exceeds 1."""
    try:
        b_osc = math.ldexp(g_decay, -(k + 1))
    except OverflowError:
        return math.inf
    b_poi = 1.0 / math.ldexp(rho_xi, k + 1)
    if b_osc > 1.0 or b_poi > 1.0:
        return math.inf
    return (8.0 / 3.0) * (b_osc * b_osc + b_poi * b_poi)


@pytest.mark.parametrize("xi", [[0.9, 0.4], [1e300, 1e-300], [1e-300, 0.0],
                                [1.7e308], list(_annulus_input(16))],
                         ids=["d=2", "overflowing", "tiny", "huge", "d=16"])
def test_upper_tail_over_the_scales_is_the_one_scale_rule(xi):
    xi = np.asarray(xi)
    rho_xi = float(rho(xi))
    g_decay = _decay_prefactor(xi)
    k_center = int(round(-math.log2(rho_xi)))
    ks = np.arange(k_center - 30, k_center + multiplier.WINDOW_LIMIT + 1)
    tails = _upper_tail_sq(g_decay, rho_xi, ks)
    assert tails.tolist() == [_upper_tail_rule(g_decay, rho_xi, k)
                              for k in ks.tolist()]
    # G 2^{-k} overflows at the window start of [1e300, 1e-300]
    if xi[0] == 1e300:
        assert tails[30] == math.inf
