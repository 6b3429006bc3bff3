import numpy as np
import pytest

from curvemax.curve_measure import (CurveCoeffs, DyadicWindow,
                                    dyadic_phase_size, mu_hat,
                                    sigma_decay_envelope, sigma_hat,
                                    sigma_hat_dyadic, sigma_hat_upper_bound,
                                    top_index)
from curvemax.norms import dilate


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
    direct = sigma_hat_dyadic(xi, k, tol=1e-12)
    scaled = sigma_hat(dilate(xi, 2.0 ** k), tol=1e-12)
    assert direct == pytest.approx(scaled, abs=1e-10)


def test_top_index():
    assert top_index((0.0, 0.0)) == 0
    assert top_index((1.0, 0.0)) == 1
    assert top_index((0.0, 2.0, 0.0)) == 2


def test_certified_bound_majorizes():
    rng = np.random.default_rng(31)
    for _ in range(40):
        d = int(rng.integers(1, 4))
        xi = np.sign(rng.standard_normal(d)) * 10.0 ** rng.uniform(-1, 2, d)
        k = int(rng.integers(-2, 3))
        if dyadic_phase_size(xi, k) > 1e5:
            continue
        bound = sigma_hat_upper_bound(xi, k)
        val = abs(sigma_hat_dyadic(xi, k, tol=1e-11))
        assert val <= min(1.0, bound) + 1e-9


@pytest.mark.parametrize("xi", [[0.0, 5e-324], [1e-310, 1.0]])
def test_certified_bound_rejects_subnormal_coordinates(xi):
    # at [0, 5e-324] the bound rounded to 0.9320, below the 0.9477 of its
    # exact dilation [0, 1] at k = 3
    with pytest.raises(ValueError, match="is subnormal"):
        sigma_hat_upper_bound(xi, 540)


def test_envelope_positive_and_monotone_in_scale():
    xi = np.array([2.0, 1.0])
    envs = [sigma_decay_envelope(xi, k) for k in range(0, 6)]
    assert all(e > 0 for e in envs)
    assert all(a >= b for a, b in zip(envs, envs[1:]))
    with pytest.raises(ValueError):
        sigma_decay_envelope(np.zeros(2), 0)


def test_phase_size_overflow_is_inf():
    assert dyadic_phase_size((1.0, 1.0), 2000) == np.inf
    assert dyadic_phase_size((0.0, 0.0), 3) == 0.0


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
