import math

import numpy as np
import pytest
from scipy import stats

from curvemax.norms import _blocks, dilate, make_space, rho
from curvemax.rng import stream
from curvemax.stable_poisson import (density_1d_check, gram_psd_check,
                                     negative_type_check, poisson_hat,
                                     sample_kernel_batch,
                                     sample_positive_stable,
                                     sample_symmetric_stable, semigroup_check,
                                     stable_density_1d,
                                     subordination_identity_check)


@pytest.mark.parametrize("x", [0.0, 0.1, 1.0 / (2.0 * math.pi), 1.0, 3.0])
def test_cauchy_like_density_closed_form(x):
    res = density_1d_check(x, tol=1e-8)
    assert res.passed
    assert res.lhs == pytest.approx(2.0 / (1.0 + 4.0 * math.pi**2 * x**2),
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


def test_poisson_hat_properties():
    space = make_space(3)
    xi = stream(0, 3).standard_normal((20, 3))
    vals = poisson_hat(xi, t=1.0)
    assert np.all((0 < vals) & (vals <= 1.0))
    np.testing.assert_allclose(poisson_hat(xi, t=2.0), vals ** 2, rtol=1e-12)
    assert poisson_hat(np.zeros(3)) == 1.0


def test_stable_blocks_cover_all_indices():
    # the kernel sampler draws one b_j-stable coordinate per index j of each
    # block, with b_j = 2^level / j
    for d in (1, 2, 3, 5, 16):
        blocks = _blocks(d)
        seen = sorted(int(j) for _, _, _, js in blocks for j in js)
        assert seen == list(range(1, d + 1))
        for _, _, level, js in blocks:
            assert all(1.0 <= 2**level / j <= 2.0 for j in js)


def test_kernel_draws_scale_by_dilation():
    # same substream, so the underlying uniforms agree draw for draw
    space = make_space(4)
    pts1, _ = sample_kernel_batch(space, 1.0, 500, stream(9, 3))
    pts2, _ = sample_kernel_batch(space, 2.0, 500, stream(9, 3))
    np.testing.assert_allclose(pts2, dilate(pts1, 2.0), rtol=1e-12, atol=0.0)


def test_kernel_marginal_characteristic_function():
    space = make_space(2)
    rng = stream(1, 3)
    pts, _ = sample_kernel_batch(space, 1.0, 200_000, rng)
    xi = np.array([0.6, 0.4])
    phases = np.exp(-2j * math.pi * (pts @ xi))
    target = poisson_hat(xi, t=1.0)
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
            assert negative_type_check(pts) <= 1e-8


def test_gram_tightness_at_tiny_scale():
    # at t -> 0 the matrix approaches all-ones, one eigenvalue near zero
    pts = stream(3, 7).standard_normal((10, 2))
    assert gram_psd_check(pts, t=1e-9) == pytest.approx(0.0, abs=1e-6)
