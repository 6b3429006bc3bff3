"""Reference computations made apart from curvemax.

Every check in the benchmark compares a curvemax output either with one of
these functions or with a property the method must have.  None of them
imports curvemax: the norm is the plain block formula, oscillatory integrals
go through QUADPACK (scipy.integrate.quad) or Clenshaw-Curtis on Chebyshev
points, and sublevel sets come from polynomial roots.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import fft, integrate

PADDED_K = (-200, 60)     # scales summed for a padded profile
CC_MAX_LOG2 = 20          # Clenshaw-Curtis stops at 2^20 + 1 nodes
CF_CHUNK = 50_000         # points per block of the characteristic function


def rho_ref(x) -> np.ndarray:
    """Block homogeneous norm by its defining formula, without rescaling.

    Block l covers the indices 2^{l-1} < j <= 2^l (block 0 is j = 1) and adds
    (sum_j |x_j|^{2^l / j})^{1 / 2^l}.  Fine for entries between about 1e-150
    and 1e150, which is all the benchmark feeds it.
    """
    x = np.abs(np.asarray(x, dtype=float))
    d = x.shape[-1]
    total = np.zeros(x.shape[:-1])
    level, lo = 0, 0
    while lo < d:
        hi = min(2**level, d)
        js = np.arange(lo + 1, hi + 1, dtype=float)
        inner = np.sum(x[..., lo:hi] ** (2.0**level / js), axis=-1)
        total = total + inner ** (1.0 / 2**level)
        lo, level = hi, level + 1
    return total


def dilate_ref(x, s) -> np.ndarray:
    """Coordinate j scaled by s^j; s broadcasts against the leading axes."""
    x = np.asarray(x, dtype=float)
    js = np.arange(1, x.shape[-1] + 1, dtype=float)
    return x * np.asarray(s, dtype=float)[..., None] ** js


# -- one-dimensional closed forms --------------------------------------------

def sigma_hat_1d(x: float) -> float:
    """int_{1/2<|t|<=1} e^{-2 pi i x t} dt = (sin 2 pi x - sin pi x) / (pi x)."""
    return (math.sin(2.0 * math.pi * x) - math.sin(math.pi * x)) / (math.pi * x)


def mu_hat_1d(x: float) -> float:
    """(1/2) int_{|t|<=1} e^{-2 pi i x t} dt = sin(2 pi x) / (2 pi x)."""
    return math.sin(2.0 * math.pi * x) / (2.0 * math.pi * x)


def cauchy_density(x: float) -> float:
    """Inverse transform of exp(-|xi|) in the e^{-2 pi i x xi} convention."""
    return 2.0 / (1.0 + 4.0 * math.pi**2 * x * x)


def gauss_density(x: float) -> float:
    """Inverse transform of exp(-xi^2) in the e^{-2 pi i x xi} convention."""
    return math.sqrt(math.pi) * math.exp(-math.pi**2 * x * x)


def padded_profile_direct(x: float) -> float:
    """g of the one-coordinate frequency (x, 0, ..., 0) by direct summation.

    Each term |2 sinc(2 eta) - sinc(eta) - exp(-|eta|)| with eta = 2^k x is a
    closed form, so over the scales PADDED_K this is the profile up to
    rounding and the mass outside that range.
    """
    ks = np.arange(PADDED_K[0], PADDED_K[1] + 1, dtype=float)
    eta = 2.0**ks * x
    vals = np.abs(2.0 * np.sinc(2.0 * eta) - np.sinc(eta) - np.exp(-np.abs(eta)))
    return float(np.sqrt(np.sum(vals**2)))


# -- oscillatory integrals ---------------------------------------------------

def sigma_hat_quadpack(eta) -> tuple:
    """Shell transform of the moment curve at eta through scipy.integrate.quad.

    Returns (value, error estimate).  Meant for modest phases; the caller
    keeps the total phase 2 pi sum_j |eta_j| small enough for QUADPACK's
    adaptive Gauss-Kronrod rule.
    """
    coeffs = np.concatenate([[0.0], -2.0 * math.pi * np.asarray(eta, dtype=float)])
    poly = np.polynomial.Polynomial(coeffs)
    total, err = 0.0 + 0.0j, 0.0
    for a, b in ((0.5, 1.0), (-1.0, -0.5)):
        re, e_re = integrate.quad(lambda t: math.cos(poly(t)), a, b,
                                  epsabs=1e-14, epsrel=0.0, limit=400)
        im, e_im = integrate.quad(lambda t: math.sin(poly(t)), a, b,
                                  epsabs=1e-14, epsrel=0.0, limit=400)
        total += complex(re, im)
        err += e_re + e_im
    return total, err


def profile_entry_quadpack(xi, k: int) -> tuple:
    """|sigma_hat(delta_{2^k} xi) - exp(-2^k rho(xi))| and its error estimate."""
    xi = np.asarray(xi, dtype=float)
    eta = dilate_ref(xi, 2.0**k)
    value, err = sigma_hat_quadpack(eta)
    return abs(value - math.exp(-(2.0**k) * float(rho_ref(xi)))), err


def phase_size(xi, k: int) -> float:
    """2 pi sum_j |xi_j| 2^{kj}: a bound on the phase over |t| <= 1."""
    return 2.0 * math.pi * float(np.sum(np.abs(dilate_ref(xi, 2.0**k))))


def osc_integral_cc(coeffs) -> tuple:
    """int_{-1}^{1} exp(i sum_k c_k t^k) dt by Clenshaw-Curtis quadrature.

    ``coeffs`` are c_1, c_2, ... (no constant term).  The Chebyshev
    coefficients come from a type-I DCT of the samples at cos(pi j / N); the
    node count doubles until two successive results agree to 1e-13 per unit
    of phase (rounding in the phase sets that floor), and that difference is
    returned as the error estimate.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    poly = np.polynomial.Polynomial(np.concatenate([[0.0], coeffs]))
    settle = 1e-13 * (1.0 + float(np.sum(np.abs(coeffs))))
    prev = None
    for log2n in range(6, CC_MAX_LOG2 + 1):
        n = 1 << log2n
        f = np.exp(1j * poly(np.cos(np.pi * np.arange(n + 1) / n)))
        a = (fft.dct(f.real, type=1) + 1j * fft.dct(f.imag, type=1)) / n
        a[0] *= 0.5
        a[n] *= 0.5
        k = np.arange(0, n + 1, 2, dtype=float)
        value = complex(np.sum(a[::2] * (2.0 / (1.0 - k * k))))
        if prev is not None and abs(value - prev) <= settle:
            return value, abs(value - prev)
        prev = value
    raise RuntimeError("Clenshaw-Curtis quadrature did not settle")


# -- sublevel sets -----------------------------------------------------------

def sublevel_by_roots(full_coeffs, a: float, b: float, delta: float) -> tuple:
    """Measure of {t in [a, b] : |p(t)| <= delta} from the roots of p -/+ delta.

    Returns (measure, number of boundary points found inside (a, b)).  Between
    consecutive boundary points membership is constant, so one midpoint test
    per piece decides it.
    """
    full = np.asarray(full_coeffs, dtype=float)
    cuts = [a, b]
    for shift in (-delta, delta):
        c = full.copy()
        c[0] += shift
        roots = np.polynomial.polynomial.polyroots(c)
        real = roots.real[np.abs(roots.imag) <= 1e-9 * max(1.0, abs(a), abs(b))]
        cuts.extend(float(r) for r in real if a < r < b)
    cuts = sorted(set(cuts))
    poly = np.polynomial.Polynomial(full)
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if abs(poly(0.5 * (lo + hi))) <= delta:
            total += hi - lo
    return total, len(cuts) - 2


# -- Monte Carlo characteristic functions ------------------------------------

def empirical_cf(points: np.ndarray, freqs: np.ndarray):
    """Mean of exp(-2 pi i xi . X) over the sample and its standard error.

    Returns (mean, stderr) per frequency.  Since |exp(i theta)| = 1, the
    real and imaginary sample variances add up to 1 - |mean|^2.
    """
    n = len(points)
    w = -2.0 * math.pi * np.asarray(freqs, dtype=float).T
    total = np.zeros(w.shape[1], dtype=complex)
    for start in range(0, n, CF_CHUNK):
        total += np.exp(1j * (points[start:start + CF_CHUNK] @ w)).sum(axis=0)
    mean = total / n
    return mean, np.sqrt(np.maximum(1.0 - np.abs(mean) ** 2, 0.0) / n)
