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

A batch of kernel draws is one (n, d) buffer: each coordinate is written into
it, and the division by 2 pi and the dilation by t happen in place, with
dilate's arithmetic.  Every sine and cosine of the Chambers-Mallows-Stuck
forms comes from one tangent, sin(theta) = 2t / (1 + t^2) with
t = tan(theta/2) (oscillatory._sin), numpy's vectorised tan being several
times faster than its sin and cos.  A cosine that nears 0 as U nears +-pi/2 is
sin(pi/2 - |U|), with pi/2 in two parts so that it keeps its relative
accuracy (_cos); (1 - t^2) / (1 + t^2) would lose it.  Each draw is built in
place, in the arrays of U and W and two more of their size.  The level-1
subordinator (gamma = 1/2, present for every d >= 2) takes the form's
closed case T = (1 + tan(U/2)^2) / (4 W): one tangent per draw, the same U
and W, and the general form's value within a few ulps.  Against the
formulas at 160 bits the draws' largest error is that of the libm forms
they replaced, to within half an ulp (tests/test_stable_poisson.py).
"""

from __future__ import annotations

import math
import numbers
import warnings
from typing import NamedTuple

import numpy as np
from scipy import integrate

from .norms import make_space, rho, _blocks, _dilate
from .oscillatory import _cis, _require_tol, _sin
from .rng import STREAMS, stream


def stable_density_1d(beta: float, x: float, tol: float = 1e-10) -> float:
    """Density at x of the symmetric law with transform exp(-|xi|^beta).

    Inverts 2 int_0^inf exp(-u^beta) cos(2 pi u x) du with an oscillation-aware
    rule and an explicit truncation bound 2 exp(-U^beta) / (beta U^{beta-1}).
    """
    _require_tol(tol)
    if not 1.0 <= beta <= 2.0:
        raise ValueError("beta must lie in [1, 2]")
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
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


# pi/2 in two parts, hi + lo: pi/2 - |u| = (hi - |u|) + lo keeps its
# relative accuracy as |u| nears pi/2, where hi - |u| is exact
_HALF_PI_HI = 0.5 * math.pi
_HALF_PI_LO = 6.123233995736766e-17


def _cos(theta, out, scratch):
    """cos(theta) for |theta| <= pi/2, written to out: sin(pi/2 - |theta|),
    with pi/2 in two parts, so that it keeps its relative accuracy where
    cos(theta) is near 0; theta may be out itself."""
    np.abs(theta, out=out)
    np.subtract(_HALF_PI_HI, out, out=out)
    out += _HALF_PI_LO
    return _sin(out, scratch)


def sample_symmetric_stable(beta: float, rng: np.random.Generator, size=None):
    """Symmetric stable draw(s) with E exp(iuX) = exp(-|u|^beta), beta in [1, 2].

    Transform method: a uniform angle and an exponential mixed through the
    classic trigonometric map,
        sin(beta U) / cos(U)^{1/beta} (cos((1 - beta) U) / W)^{(1-beta)/beta}.
    beta = 1 degenerates to tan(U) (unit Cauchy) and beta = 2 to a centered
    normal with variance 2.  Each sine and cosine comes from one tangent
    (_sin, _cos), and the draw is built in the arrays of U and W and two
    more of their size.
    """
    if not 1.0 <= beta <= 2.0:
        raise ValueError("beta must lie in [1, 2]")
    u = np.asarray(rng.uniform(-0.5 * math.pi, 0.5 * math.pi, size=size))
    if beta == 1.0:
        return np.tan(u, out=u)[()]
    w = np.asarray(rng.standard_exponential(size=size))
    c, scratch = np.empty_like(u), np.empty_like(u)
    np.multiply(u, 1.0 - beta, out=c)
    _cos(c, c, scratch)
    np.divide(c, w, out=w)
    np.power(w, (1.0 - beta) / beta, out=w)
    _cos(u, c, scratch)
    np.power(c, 1.0 / beta, out=c)
    u *= beta
    _sin(u, scratch)
    u /= c
    u *= w
    return u[()]


def sample_positive_stable(gamma: float, rng: np.random.Generator, size=None):
    """Positive stable draw(s) with Laplace transform E exp(-sT) = exp(-s^gamma).

    Uses the product representation T = (a(U)/W)^{(1-gamma)/gamma} with
    a(u) = sin(gamma u)^{gamma/(1-gamma)} sin((1-gamma) u) / sin(u)^{1/(1-gamma)}
    for U uniform on (0, pi) and W unit exponential (Chambers, Mallows and
    Stuck), each sine from one tangent (_sin), the draw built in the arrays
    of U and W and two more of their size.  At gamma = 1/2, the level-1
    subordinator of every kernel with d >= 2, a(u) = sin(u/2)^2 / sin(u)^2
    = (1 + tan(u/2)^2) / 4 and the outer power is 1, so
    T = (1 + tan(U/2)^2) / (4 W) from the same U and W: one tangent in place
    of three sines and three powers.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    u = np.asarray(rng.uniform(0.0, math.pi, size=size))
    w = np.asarray(rng.standard_exponential(size=size))
    if gamma == 0.5:
        u *= 0.5
        np.tan(u, out=u)
        u *= u
        u += 1.0
        u /= w
        u *= 0.25
        return u[()]
    s, scratch = np.empty_like(u), np.empty_like(u)
    np.multiply(u, gamma, out=s)
    np.power(_sin(s, scratch), gamma / (1.0 - gamma), out=s)
    np.divide(s, w, out=w)
    np.multiply(u, 1.0 - gamma, out=s)
    w *= _sin(s, scratch)
    np.power(_sin(u, s), 1.0 / (1.0 - gamma), out=u)
    w /= u
    np.power(w, (1.0 - gamma) / gamma, out=w)
    return w[()]


def sample_kernel_batch(space, t: float, n: int,
                        rng: np.random.Generator) -> tuple:
    """n kernel draws at scale t: points (n, d) plus per-level subordinators.

    The points are one buffer: each coordinate is written into it, then it
    is divided by 2 pi and dilated by t in place.  Besides the buffer and
    the subordinators, the sampler holds one draw's four arrays of n.
    """
    if not 0 < t < math.inf:
        raise ValueError(f"scale must be positive and finite, got {t}")
    if not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    x = np.empty((n, space.d))
    subs = {}
    for _, _, level, js in _blocks(space.d):
        if level:
            tsub = sample_positive_stable(1.0 / 2**level, rng, size=n)
            subs[level] = tsub
        for j in js.astype(int).tolist():
            y = sample_symmetric_stable(2**level / j, rng, size=n)
            if level:
                # tsub ** 1.0 is tsub, so j = 2^level takes it as it is
                y *= tsub if j == 2**level else tsub ** (j / 2**level)
            x[:, j - 1] = y
            del y               # not held through the next draw
    x /= 2.0 * math.pi
    return _dilate(x, t, out=x), subs


class CheckResult(NamedTuple):
    passed: bool
    lhs: float
    rhs: float


def subordination_identity_check(x: float, gamma: float,
                                 tol: float = 1e-8) -> CheckResult:
    """x^gamma == gamma/Gamma(1-gamma) * int_0^inf (1 - e^{-tx}) t^{-gamma-1} dt."""
    if not 0.0 < x < math.inf or not 0.0 < gamma < 1.0:
        raise ValueError("need finite x > 0 and gamma in (0, 1)")
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


def gram_psd_check(points, t: float = 1.0) -> float:
    """Smallest eigenvalue of [exp(-t rho(x_i - x_j))]; PSD up to roundoff."""
    if not 0 < t < math.inf:
        raise ValueError(f"scale must be positive and finite, got {t}")
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or not len(pts):
        raise ValueError(f"points must be a nonempty (m, d) array, "
                         f"got shape {pts.shape}")
    gram = np.exp(-t * rho(pts[:, None, :] - pts[None, :, :]))
    return float(np.linalg.eigvalsh(gram)[0])


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
    if not isinstance(n_samples, numbers.Integral) or n_samples < 1:
        raise ValueError(f"n_samples must be an integer >= 1, got {n_samples!r}")
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    space = make_space(xi.shape[-1])
    r = rho(xi)
    fourier_gap = float(np.max(np.abs(np.exp(-s * r) * np.exp(-t * r)
                                      - np.exp(-(s + t) * r))))

    rng = stream(seed, STREAMS["kernel"])
    xs, _ = sample_kernel_batch(space, s, n_samples, rng)
    ys, _ = sample_kernel_batch(space, t, n_samples, rng)
    z = xs + ys
    re, im = _cis(-2.0 * math.pi * (z @ xi.T))
    emp = re.mean(axis=0) + 1j * im.mean(axis=0)
    se = np.sqrt((re.var(axis=0) + im.var(axis=0)) / n_samples)
    gap = np.abs(emp - np.exp(-(s + t) * r))
    worst = int(np.argmax(gap - 3.0 * se))
    passed = bool(fourier_gap <= 5e-15 and np.all(gap <= 3.0 * se))
    return SemigroupReport(fourier_gap=fourier_gap,
                           sample_gap=float(gap[worst]),
                           sample_sigma=float(se[worst]),
                           passed=passed)

