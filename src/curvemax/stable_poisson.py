"""The Poisson-type kernel whose transform is exp(-rho), via stable laws.

Each dyadic block of the norm contributes a factor exp(-(sum_j |u_j|^{b_j})^{1/2^l})
with b_j = 2^l / j in [1, 2].  Such a factor is the characteristic function of
a random vector built from independent symmetric b_j-stable coordinates, all
scaled by one positive (1/2^l)-stable subordinator raised to the power j/2^l.
Multiplying the independent blocks together realizes exp(-rho(u)) exactly, so
the kernel can be sampled without ever tabulating its heavy-tailed density.

Convention note: the one-dimensional samplers use the probabilist's transform
E exp(iuX) = exp(-|u|^beta).  The package measures Fourier transforms with
E exp(-2 pi i xi . X), so kernel coordinates are divided by 2 pi before the
final dilation by t; that bridge is what makes the d = 1 kernel density equal
2 / (1 + 4 pi^2 x^2) rather than the unit Cauchy density.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np
from scipy import integrate

from .norms import dilate, make_space, rho, _blocks
from .rng import STREAMS, stream


def poisson_hat(xi, t: float = 1.0):
    """Fourier transform exp(-t rho(xi)); accepts (..., d) batches."""
    if t <= 0:
        raise ValueError("scale must be positive")
    return np.exp(-t * np.asarray(rho(xi)))


def stable_density_1d(beta: float, x: float, tol: float = 1e-10) -> float:
    """Density at x of the symmetric law with transform exp(-|xi|^beta).

    Inverts 2 int_0^inf exp(-u^beta) cos(2 pi u x) du with an oscillation-aware
    rule and an explicit truncation bound 2 exp(-U^beta) / (beta U^{beta-1}).
    """
    if not 1.0 <= beta <= 2.0:
        raise ValueError("beta must lie in [1, 2]")
    cutoff = max(5.0, (-math.log(tol / 8.0)) ** (1.0 / beta) + 2.0)
    decay = lambda u: np.exp(-u**beta)
    if x == 0.0:
        val, err = integrate.quad(decay, 0.0, cutoff, epsabs=tol / 8.0,
                                  epsrel=1e-13, limit=200)
    else:
        val, err = integrate.quad(decay, 0.0, cutoff, weight="cos",
                                  wvar=2.0 * math.pi * x, epsabs=tol / 8.0,
                                  epsrel=1e-13, limit=500)
    tail = 2.0 * math.exp(-cutoff**beta) / (beta * cutoff ** (beta - 1.0))
    if 2.0 * err + tail > tol:
        raise RuntimeError(f"density quadrature error {2*err+tail:.2e} exceeds {tol}")
    return 2.0 * val


def sample_symmetric_stable(beta: float, rng: np.random.Generator, size=None):
    """Symmetric stable draw(s) with E exp(iuX) = exp(-|u|^beta), beta in [1, 2].

    Transform method: a uniform angle and an exponential mixed through the
    classic trigonometric map.  beta = 1 degenerates to tan(U) (unit Cauchy)
    and beta = 2 to a centered normal with variance 2.
    """
    if not 1.0 <= beta <= 2.0:
        raise ValueError("beta must lie in [1, 2]")
    u = rng.uniform(-0.5 * math.pi, 0.5 * math.pi, size=size)
    if beta == 1.0:
        return np.tan(u)
    w = rng.standard_exponential(size=size)
    return (np.sin(beta * u) / np.cos(u) ** (1.0 / beta)
            * (np.cos((1.0 - beta) * u) / w) ** ((1.0 - beta) / beta))


def sample_positive_stable(gamma: float, rng: np.random.Generator, size=None):
    """Positive stable draw(s) with Laplace transform E exp(-sT) = exp(-s^gamma).

    Uses the product representation T = (a(U)/W)^{(1-gamma)/gamma} with
    a(u) = sin(gamma u)^{gamma/(1-gamma)} sin((1-gamma) u) / sin(u)^{1/(1-gamma)}
    for U uniform on (0, pi) and W unit exponential.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    u = rng.uniform(0.0, math.pi, size=size)
    w = rng.standard_exponential(size=size)
    a = (np.sin(gamma * u) ** (gamma / (1.0 - gamma))
         * np.sin((1.0 - gamma) * u)
         / np.sin(u) ** (1.0 / (1.0 - gamma)))
    return (a / w) ** ((1.0 - gamma) / gamma)


def sample_kernel_batch(space, t: float, n: int,
                        rng: np.random.Generator) -> tuple:
    """n kernel draws at scale t: points (n, d) plus per-level subordinators."""
    if t <= 0:
        raise ValueError("scale must be positive")
    x = np.empty((n, space.d))
    subs = {}
    for _, _, level, js in _blocks(space.d):
        if level:
            tsub = sample_positive_stable(1.0 / 2**level, rng, size=n)
            subs[level] = tsub
        for j in js.astype(int).tolist():
            y = sample_symmetric_stable(2**level / j, rng, size=n)
            if level:
                y = y * tsub ** (j / 2**level)
            x[:, j - 1] = y
    return dilate(x / (2.0 * math.pi), t), subs


class CheckResult(NamedTuple):
    passed: bool
    lhs: float
    rhs: float


def subordination_identity_check(x: float, gamma: float,
                                 tol: float = 1e-8) -> CheckResult:
    """x^gamma == gamma/Gamma(1-gamma) * int_0^inf (1 - e^{-tx}) t^{-gamma-1} dt."""
    if x <= 0 or not 0.0 < gamma < 1.0:
        raise ValueError("need x > 0 and gamma in (0, 1)")
    f = lambda s: (1.0 - np.exp(-s * x)) * s ** (-gamma - 1.0)
    cut = 1.0 / x
    # The s^{-gamma} singularity at 0 trips quad's roundoff heuristic; the
    # identity comparison below is the actual accuracy gate.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        v1, e1 = integrate.quad(f, 0.0, cut, epsabs=tol / 4, epsrel=1e-12,
                                limit=200)
        v2, e2 = integrate.quad(f, cut, np.inf, epsabs=tol / 4, epsrel=1e-12,
                                limit=200)
    rhs = gamma / math.gamma(1.0 - gamma) * (v1 + v2)
    lhs = x**gamma
    return CheckResult(passed=abs(lhs - rhs) <= tol * max(1.0, lhs),
                       lhs=lhs, rhs=rhs)


def pairwise_rho(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    return rho(pts[:, None, :] - pts[None, :, :])


def gram_psd_check(points, t: float = 1.0) -> float:
    """Smallest eigenvalue of [exp(-t rho(x_i - x_j))]; PSD up to roundoff."""
    gram = np.exp(-t * pairwise_rho(points))
    return float(np.linalg.eigvalsh(gram)[0])


def negative_type_check(points) -> float:
    """Largest eigenvalue of the rho-distance matrix on zero-sum vectors.

    Nonpositive (up to roundoff) exactly when rho is of negative type, the
    dual face of the Gram positivity above.
    """
    dist = pairwise_rho(points)
    m = dist.shape[0]
    proj = np.eye(m) - np.full((m, m), 1.0 / m)
    sym = proj @ dist @ proj
    return float(np.linalg.eigvalsh(0.5 * (sym + sym.T))[-1])


class SemigroupReport(NamedTuple):
    fourier_gap: float
    sample_gap: float
    sample_sigma: float
    passed: bool


def semigroup_check(s: float, t: float, xi, n_samples: int = 200_000,
                    seed: int = 0) -> SemigroupReport:
    """Convolution semigroup property at scales s and t.

    Fourier side: exp(-s rho) exp(-t rho) agrees with exp(-(s+t) rho) to a few
    ulps at the given frequencies.  Sample side: summing independent draws at
    scales s and t matches the scale s+t transform within 3 standard errors.
    """
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    space = make_space(xi.shape[-1])
    r = rho(xi)
    fourier_gap = float(np.max(np.abs(np.exp(-s * r) * np.exp(-t * r)
                                      - np.exp(-(s + t) * r))))

    rng = stream(seed, STREAMS["kernel"])
    xs, _ = sample_kernel_batch(space, s, n_samples, rng)
    ys, _ = sample_kernel_batch(space, t, n_samples, rng)
    z = xs + ys
    phases = np.exp(-2j * math.pi * (z @ xi.T))
    emp = phases.mean(axis=0)
    se = np.sqrt((phases.real.var(axis=0) + phases.imag.var(axis=0)) / n_samples)
    gap = np.abs(emp - np.exp(-(s + t) * r))
    worst = int(np.argmax(gap - 3.0 * se))
    passed = bool(fourier_gap <= 5e-15 and np.all(gap <= 3.0 * se))
    return SemigroupReport(fourier_gap=fourier_gap,
                           sample_gap=float(gap[worst]),
                           sample_sigma=float(se[worst]),
                           passed=passed)


def density_1d_check(x: float, tol: float = 1e-8) -> CheckResult:
    """Numeric inversion of exp(-|xi|) against the closed form 2/(1+4 pi^2 x^2)."""
    lhs = stable_density_1d(1.0, x, tol=tol / 2)
    rhs = 2.0 / (1.0 + 4.0 * math.pi**2 * x**2)
    return CheckResult(passed=abs(lhs - rhs) <= tol and lhs >= 0.0,
                       lhs=lhs, rhs=rhs)
