import cmath
import math
import warnings

import numpy as np
import pytest

from curvemax.curve_measure import (CurveCoeffs, DyadicWindow,
                                    dyadic_phase_size, mu_hat, sigma_hat,
                                    sigma_hat_dyadics, sigma_hat_upper_bound,
                                    top_index, _decay_prefactor)
from curvemax.multiplier import g_profile, induction_diagnostics, nu_hat
from curvemax.norms import dilate, rho


def test_zero_frequency_is_total_mass():
    assert sigma_hat((0.0,)) == 1.0
    assert mu_hat((0.0, 0.0)) == 1.0


def test_one_dim_closed_form():
    # shell transform in one dimension: 2 sinc(2 xi) - sinc(xi)
    rng = np.random.default_rng(5)
    xs = np.sign(rng.standard_normal(60)) * 10.0 ** rng.uniform(-2, 1.4, 60)
    for x in xs:
        cf = 2.0 * np.sinc(2.0 * x) - np.sinc(x)
        assert sigma_hat((x,), tol=1e-12) == pytest.approx(cf, abs=1e-10)
        assert mu_hat((x,), tol=1e-12) == pytest.approx(np.sinc(2.0 * x),
                                                        abs=1e-10)


def test_special_values():
    assert abs(sigma_hat((1.0,))) < 1e-12
    assert sigma_hat((0.5,)) == pytest.approx(-2.0 / np.pi, abs=1e-10)
    assert mu_hat((0.25,)) == pytest.approx(2.0 / np.pi, abs=1e-10)


def test_hermitian_symmetry():
    rng = np.random.default_rng(17)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        xi = rng.standard_normal(d) * 10.0 ** rng.uniform(-1, 1)
        v = sigma_hat(xi, tol=1e-12)
        w = sigma_hat(-xi, tol=1e-12)
        assert w == pytest.approx(np.conj(v), abs=1e-10)


def test_odd_coordinates_alone_give_real_transform():
    # phase xi_1 t + xi_3 t^3 is odd in t, so sines cancel across the shell
    v = sigma_hat((3.7, 0.0, -1.2), tol=1e-12)
    assert abs(v.imag) < 1e-11


@pytest.mark.parametrize("k", [-3, -1, 0, 1, 2])
def test_dyadic_scale_is_a_dilation(k):
    rng = np.random.default_rng(23 + k)
    xi = rng.standard_normal(3)
    direct = sigma_hat_dyadics(xi, (k,), tol=1e-12)[0]
    scaled = sigma_hat(dilate(xi, 2.0 ** k), tol=1e-12)
    assert direct == pytest.approx(scaled, abs=1e-10)


def test_top_index():
    assert top_index((0.0, 0.0)) == 0
    assert top_index((1.0, 0.0)) == 1
    assert top_index((0.0, 2.0, 0.0)) == 2


def test_certified_bound_majorizes():
    rng = np.random.default_rng(31)
    for i in range(60):
        d = int(rng.integers(1, 4)) if i < 40 else 4 + i % 2
        xi = np.sign(rng.standard_normal(d)) * 10.0 ** rng.uniform(-1, 2, d)
        k = int(rng.integers(-2, 3))
        if dyadic_phase_size(xi, k) > 1e5:
            continue
        bound = sigma_hat_upper_bound(xi, k)
        val = abs(sigma_hat_dyadics(xi, (k,), tol=1e-11)[0])
        assert val <= min(1.0, bound) + 1e-9


def _annulus(rng, d):
    v = rng.standard_normal(d)
    return dilate(v, rng.uniform(1.0, 2.0) / rho(v))


def _unit(d):
    e = np.zeros(d)
    e[-1] = 1.0
    return e


def _assert_below_decay_bound(xi, ks):
    g = _decay_prefactor(xi)
    for k in ks:
        assert sigma_hat_upper_bound(xi, k) <= min(1.0, math.ldexp(g, -k))


@pytest.mark.parametrize("d", [8, 16])
def test_certified_bound_never_above_decay_bound_on_unit_vectors(d):
    # a delta scan around log M missed the optimum here: e_16 stuck at
    # 0.5866 for every k >= 8 and e_8 at 0.0061 from k = 16
    _assert_below_decay_bound(_unit(d), range(41))


@pytest.mark.parametrize("d", [2, 4, 8, 16])
def test_certified_bound_never_above_decay_bound_on_annulus(d):
    rng = np.random.default_rng(40 + d)
    for _ in range(4):
        _assert_below_decay_bound(_annulus(rng, d), range(0, 121, 3))


def test_certified_bound_decays_past_the_scan_window():
    bounds = [sigma_hat_upper_bound(_unit(16), k) for k in (8, 12, 16)]
    assert bounds[0] <= 0.140 and bounds[1] <= 0.0089 and bounds[2] <= 0.00056


def test_certified_bound_is_dyadic_equivariant():
    rng = np.random.default_rng(44)
    for d in (1, 2, 3, 5, 8, 16):
        xi = _annulus(rng, d)
        for k in range(-20, 80, 7):
            assert sigma_hat_upper_bound(dilate(xi, 2.0), k) == pytest.approx(
                sigma_hat_upper_bound(xi, k + 1), rel=1e-12, abs=0.0)


def test_certified_bound_at_huge_coordinates():
    # 2 pi |xi_1| overflowed before the log, leaving the trivial bound 1
    xi = np.array([1e308, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bound = sigma_hat_upper_bound(xi, 5)
    # delta_{2^-500} keeps xi_2 normal; delta_{2^-1000} would flush it to 0
    scaled = sigma_hat_upper_bound(np.ldexp(xi, [-500, -1000]), 505)
    assert bound < 1.0
    assert bound == pytest.approx(scaled, rel=1e-12, abs=0.0)


def test_certified_bound_over_many_scales_is_its_one_scale_value():
    # one call over k = -1100..1100 gives each one-k float bit for bit, at
    # every d up to 64 and with zero coordinates, and warns of nothing
    rng = np.random.default_rng(29)
    ks = np.arange(-1100, 1101)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d in range(1, 65):
            xi = np.sign(rng.standard_normal(d)) * 10.0 ** rng.uniform(-3, 3, d)
            xi[rng.random(d) < 0.3] = 0.0
            bounds = sigma_hat_upper_bound(xi, ks)
            one = [sigma_hat_upper_bound(xi, k) for k in ks[d % 3::3].tolist()]
            assert all(isinstance(v, float) for v in one)
            assert bounds[d % 3::3].tolist() == one
    assert sigma_hat_upper_bound(np.zeros(3), ks).tolist() == [1.0] * len(ks)


@pytest.mark.parametrize("xi", [[0.0, 5e-324], [1e-310, 1.0]])
def test_certified_bound_rejects_subnormal_coordinates(xi):
    # at [0, 5e-324] the bound rounded to 0.9320, below the 0.9477 of its
    # exact dilation [0, 1] at k = 3
    for ks in (540, range(-5, 600)):
        with pytest.raises(ValueError, match="is subnormal"):
            sigma_hat_upper_bound(xi, ks)


def test_decay_prefactor_at_the_top_of_double_range():
    # 2 / (pi a) read 0 once pi a overflowed; the bound must stay positive
    a = 1.7e308
    g = _decay_prefactor([a])
    assert g > 0.0
    assert g == pytest.approx(2.0 / math.pi / a, rel=1e-12)


def test_phase_size_overflow_is_inf():
    assert dyadic_phase_size((1.0, 1.0), 2000) == np.inf
    assert dyadic_phase_size((0.0, 0.0), 3) == 0.0
    # over many scales at once, each value is the one-scale value bit for bit
    rng = np.random.default_rng(13)
    ks = range(-1100, 1101)
    for d in range(1, 17):
        xi = rng.standard_normal(d) * 10.0 ** rng.uniform(-3.0, 3.0, d)
        xi[rng.random(d) < 0.3] = 0.0
        xi[-1] = 1.5
        sizes = dyadic_phase_size(xi, ks)
        one = [dyadic_phase_size(xi, k) for k in ks]
        assert all(isinstance(v, float) for v in one)
        assert sizes.tolist() == one
        assert np.isinf(sizes[-1]) and sizes[0] == 0.0
    zeros = dyadic_phase_size(np.zeros(4), ks)
    assert zeros.tolist() == [0.0] * len(ks)


def test_sigma_hat_is_the_unit_scale_shell():
    rng = np.random.default_rng(19)
    for d in (1, 2, 3, 5, 8, 16):
        xi = _annulus(rng, d)
        for tol in (1e-6, 1e-11):
            assert sigma_hat(xi, tol) == sigma_hat_dyadics(xi, (0,), tol)[0]



def test_per_k_tolerance_gives_each_one_k_value():
    # one call with a tolerance per k equals the one-k calls at scalar tol
    # bit for bit, across mixed tolerances, a shell settled to 1 (k = -60)
    # and a shell out of quadrature reach (nan, k = 2000)
    rng = np.random.default_rng(31)
    ks = np.array([-60, -3, -1, 0, 1, 2, 2000])
    for d in (2, 3, 5, 8):
        xi = _annulus(rng, d)
        tols = 10.0 ** rng.uniform(-10.0, -3.0, len(ks))
        vals = sigma_hat_dyadics(xi, ks, tols)
        one = [sigma_hat_dyadics(xi, (k,), t)[0] for k, t in zip(ks, tols)]
        assert vals.tobytes() == np.array(one).tobytes()
        assert vals[0] == 1.0 and cmath.isnan(vals[-1])
        assert not np.isnan(vals[1:-1]).any()

_ENTRY_POINTS = {
    "sigma_hat": sigma_hat,
    "mu_hat": mu_hat,
    "sigma_hat_dyadics": lambda xi: sigma_hat_dyadics(xi, (-2, 0, 3)),
    "sigma_hat_upper_bound": lambda xi: sigma_hat_upper_bound(xi, 0),
    "nu_hat": nu_hat,
    "g_profile": g_profile,
    "induction_diagnostics": induction_diagnostics,
    "rho": rho,
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
def test_entry_points_reject_non_finite_coordinates(name, bad):
    # sigma_hat_upper_bound read 1.0 at nan and a "certified" 0.0 at inf
    for xi in ((bad, 0.5), (0.5, bad)):
        with pytest.raises(ValueError, match="must be finite"):
            _ENTRY_POINTS[name](xi)


def test_fractional_scale_is_rejected():
    # m = k - k0 was truncated to an integer: 0.121 - 0.139i, where
    # sigma_hat(delta_{2^0.5} xi) is -0.130 - 0.146i
    with pytest.raises(ValueError, match="k = 0.5"):
        sigma_hat_dyadics((0.7, 1.3), [0.5])


def test_nan_scale_has_no_certified_bound():
    # read a nan "certified bound" with a RuntimeWarning
    with pytest.raises(ValueError, match="k = nan"):
        sigma_hat_upper_bound((0.7, 1.3), [math.nan])


def test_infinite_scale_is_rejected():
    # read 1 at k = -inf
    for k in (-math.inf, math.inf):
        with pytest.raises(ValueError, match=f"k = {k}"):
            sigma_hat_dyadics((0.7, 1.3), [0, k])
        with pytest.raises(ValueError, match=f"k = {k}"):
            sigma_hat_upper_bound((0.7, 1.3), k)


def test_fractional_scale_of_nu_hat_is_rejected():
    # ended in numpy's ldexp TypeError
    with pytest.raises(ValueError, match="k = 0.5"):
        nu_hat((0.7, 1.3), 0.5)


def test_scales_past_the_64_bit_integers_stay_accepted():
    ks = range(-10**20, -10**20 + 3)
    assert sigma_hat_dyadics((1.0, 1.0), ks).tolist() == [1.0] * 3
    assert sigma_hat_upper_bound((1.0, 1.0), ks).tolist() == [1.0] * 3
    assert sigma_hat_upper_bound((1.0, 1.0), -10**20) == 1.0


def test_dyadic_window_iterates_inclusive():
    win = DyadicWindow(-2, 1)
    assert list(win.ks()) == [-2, -1, 0, 1]
    with pytest.raises(ValueError):
        DyadicWindow(3, 1)


def test_curve_coeffs_validation():
    c = CurveCoeffs((1.0, -2.0))
    assert c.gamma == (1.0, -2.0)
    with pytest.raises(ValueError):
        CurveCoeffs((1.0, 0.0))
