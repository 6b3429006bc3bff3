"""Fourier side of the moment-curve measures.

sigma is the probability measure of arc length parameter on the curve
(t, t^2, ..., t^d) over the shell 1/2 < |t| <= 1, mu its solid counterpart
over |t| <= 1.  Their transforms are oscillatory integrals with polynomial
phase, and the anisotropic dilation acts by rescaling the frequency:
sigma_hat at scale 2^k is sigma_hat(delta_{2^k} xi).

Besides plain evaluation this module carries two majorants used by the
multiplier profile: the heuristic decay envelope (max_j |xi_j 2^{kj}|)^{-1/d}
and a certified upper bound built from fully explicit constants (a Remez
sublevel estimate keyed to the largest phase coefficient plus the
first-derivative test on monotone pieces).  The certified bound is keyed to
the top nonzero index of xi, so zero-padded vectors get bit-identical
treatment in any ambient dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import GridFunction
from .oscillatory import PhasePoly, osc_integral

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class CurveCoeffs:
    """Diagonal reparametrization (gamma_1 t, gamma_2 t^2, ...), all nonzero."""

    gamma: tuple

    def __post_init__(self):
        g = tuple(float(v) for v in self.gamma)
        if not g or any(v == 0.0 or not np.isfinite(v) for v in g):
            raise ValueError("curve coefficients must be finite and nonzero")
        object.__setattr__(self, "gamma", g)


@dataclass(frozen=True)
class DyadicWindow:
    k_min: int
    k_max: int

    def __post_init__(self):
        if self.k_min > self.k_max:
            raise ValueError("empty dyadic window")

    def ks(self):
        return range(self.k_min, self.k_max + 1)


def _phase(xi) -> PhasePoly:
    xi = np.asarray(xi, dtype=float)
    return PhasePoly(coeffs=tuple(-2.0 * math.pi * xi))


def top_index(xi) -> int:
    """Largest j with xi_j != 0 (1-based); 0 for the zero vector."""
    nz = np.nonzero(np.asarray(xi, dtype=float))[0]
    return int(nz[-1]) + 1 if len(nz) else 0


def sigma_hat(xi, tol: float = 1e-10) -> complex:
    """Transform of the shell measure: int_{1/2<|t|<=1} e^{-2 pi i xi.curve(t)} dt."""
    xi = np.asarray(xi, dtype=float)
    j_top = top_index(xi)
    if j_top == 0:
        return complex(1.0)
    p = _phase(xi[:j_top])
    return (osc_integral(p, 0.5, 1.0, tol=0.5 * tol)
            + osc_integral(p, -1.0, -0.5, tol=0.5 * tol))


def mu_hat(xi, tol: float = 1e-10) -> complex:
    """Transform of the solid average: (1/2) int_{|t|<=1} e^{-2 pi i xi.curve(t)} dt."""
    xi = np.asarray(xi, dtype=float)
    j_top = top_index(xi)
    if j_top == 0:
        return complex(1.0)
    p = _phase(xi[:j_top])
    return 0.5 * osc_integral(p, -1.0, 1.0, tol=tol)


def sigma_hat_dyadic(xi, k: int, tol: float = 1e-10) -> complex:
    """sigma_hat at dyadic scale 2^k, i.e. sigma_hat(delta_{2^k} xi)."""
    xi = np.asarray(xi, dtype=float)
    return sigma_hat(np.ldexp(xi, k * np.arange(1, len(xi) + 1)), tol=tol)


def sigma_decay_envelope(xi, k: int) -> float:
    """Heuristic majorant (max_j |xi_j 2^{kj}|)^{-1/d}, computed in logs."""
    xi = np.asarray(xi, dtype=float)
    nz = np.nonzero(xi)[0]
    if len(nz) == 0:
        raise ValueError("decay envelope undefined for the zero vector")
    js = nz + 1.0
    log_max = float(np.max(np.log(np.abs(xi[nz])) + k * js * _LN2))
    return math.exp(-log_max / len(xi))


def dyadic_phase_size(xi, k: int) -> float:
    """sum_j |xi_j| 2^{kj}, an upper proxy for total phase variation / 4 pi.

    Returns inf when any term overflows double range; callers use this to
    decide whether direct quadrature at scale k is affordable at all.
    """
    xi = np.asarray(xi, dtype=float)
    nz = np.nonzero(xi)[0]
    if len(nz) == 0:
        return 0.0
    logs = np.log(np.abs(xi[nz])) + k * (nz + 1.0) * _LN2
    if np.max(logs) > 700.0:
        return math.inf
    return float(np.sum(np.exp(logs)))


# --- certified upper bound for |sigma_hat| -------------------------------
#
# Writing q = phase' (degree j_top - 1 with max coefficient M), the measure
# of {|q| <= delta} inside [-1, 1] is controlled by the Remez inequality
#     sup_[-1,1] |q| <= T_D((4 - m)/m) * delta          (|sublevel| = m),
# while coefficients are tied to the sup norm through exact Chebyshev
# coefficient sums: M <= kappa_D sup|q|.  Off the sublevel set the phase is
# monotone with |q| >= delta on at most 2(j_top - 1) stretches per piece, and
# integration by parts gives 3/delta on each.  Minimizing over delta yields
# an explicit bound ~ M^{-1/j_top}; every constant below is computed, none
# quoted.


@lru_cache(maxsize=None)
def _kappa(deg: int) -> float:
    """2 * max_i sum_{k<=deg} |t^i coefficient of T_k|, via exact integers."""
    rows = [[1], [0, 1]]
    while len(rows) <= deg:
        prev, last = rows[-2], rows[-1]
        nxt = [0] + [2 * c for c in last]
        for i, c in enumerate(prev):
            nxt[i] -= c
        rows.append(nxt)
    totals = {}
    for row in rows[: deg + 1]:
        for i, c in enumerate(row):
            totals[i] = totals.get(i, 0) + abs(c)
    return 2.0 * max(totals.values())


def _inv_chebyshev(log_x: float, deg: int) -> float:
    """cosh(arccosh(x)/deg) for x = exp(log_x) >= 1, stable for huge x."""
    if log_x <= 0.0:
        return 1.0
    if log_x > 40.0:
        y = log_x + _LN2  # arccosh(x) = log(2x) up to O(x^-2)
    else:
        y = math.acosh(math.exp(log_x))
    y /= deg
    return math.inf if y > 700.0 else math.cosh(y)


def sigma_hat_upper_bound(xi, k: int) -> float:
    """Certified bound on |sigma_hat(delta_{2^k} xi)|; always <= 1."""
    xi = np.asarray(xi, dtype=float)
    j_top = top_index(xi)
    if j_top == 0:
        return 1.0
    nz = np.nonzero(xi)[0]
    js = nz + 1.0
    # log of max_j j*|eta_j| for eta = delta_{2^k} xi, times the 2 pi phase factor
    log_m = float(np.max(np.log(js * 2.0 * math.pi * np.abs(xi[nz]))
                         + k * js * _LN2))
    if j_top == 1:
        # single-frequency piece integrates exactly: |int e^{ict}| <= 2/|c|
        return min(1.0, 2.0 * math.exp(min(_LN2 - log_m, 0.0)))

    deg = j_top - 1
    log_kappa = math.log(_kappa(deg))
    pieces = 6.0 * deg
    best = 0.5
    # minimize sublevel(delta) + pieces/delta over a log grid of delta
    center = max(log_m, 0.0)
    for log_delta in np.linspace(center - 60.0, center + 25.0, 240):
        sub = 4.0 / (1.0 + _inv_chebyshev(log_m - log_kappa - log_delta, deg))
        osc = pieces * math.exp(-log_delta)
        best = min(best, min(sub, 0.5) + osc)
    return min(1.0, 2.0 * best)


def gamma_reduce(f: GridFunction, gamma: CurveCoeffs) -> GridFunction:
    """Pull a grid function back through the diagonal map x_j -> gamma_j x_j.

    The result samples g(y) = f(gamma_1 y_1, ..., gamma_d y_d).  Because the
    map is diagonal the new lattice is the old one rescaled axis by axis, so
    no interpolation happens: samples are reused, with axes whose gamma is
    negative reversed.
    """
    if len(gamma.gamma) != f.d:
        raise ValueError("coefficient count must match grid dimension")
    samples = f.samples
    mins = []
    steps = []
    for axis, g in enumerate(gamma.gamma):
        lo, hi = f.mins[axis], f.mins[axis] + f.steps[axis] * (f.samples.shape[axis] - 1)
        if g > 0:
            mins.append(lo / g)
        else:
            samples = np.flip(samples, axis=axis)
            mins.append(hi / g)
        steps.append(f.steps[axis] / abs(g))
    return GridFunction(mins=tuple(mins), steps=tuple(steps),
                        samples=np.ascontiguousarray(samples))
