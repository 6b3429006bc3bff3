"""Fourier side of the moment-curve measures.

sigma is the probability measure of arc length parameter on the curve
(t, t^2, ..., t^d) over the shell 1/2 < |t| <= 1, mu its solid counterpart
over |t| <= 1.  Their transforms are oscillatory integrals with polynomial
phase, and the anisotropic dilation acts by rescaling the frequency:
sigma_hat at scale 2^k is sigma_hat(delta_{2^k} xi).  sigma_hat_dyadics
evaluates many scales in one quadrature pass over rescaled dyadic shells,
at one tolerance or one per scale; sigma_hat is its k = 0 case, and nu_hat
and the profile call its body, _shells, with the rho(xi) they hold.  Each
scale's phase size and Lipschitz bound on |sigma_hat - 1| come from
dyadic_phase_size and _lipschitz_size, which take many scales per call.

Besides plain evaluation this module holds the profile's certified decay
bound, sigma_hat_upper_bound, also over many scales per call: min(1, Remez
sublevel plus monotone-piece estimate at its closed-form optimum delta'),
derived above _kappa, where it is shown never above G 2^{-k}.  The bound is
keyed to the top nonzero index of xi, so zero-padded vectors get
bit-identical treatment in any ambient dimension.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from decimal import Decimal
from functools import lru_cache

import numpy as np

from .grid import GridFunction
from .norms import rho
from .oscillatory import (PhasePoly, QuadratureError, _require_tol,
                          osc_integral, osc_integrals)

_LN2 = math.log(2.0)
_ULP = float(np.finfo(float).eps)   # the spacing of doubles at 1


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


def mu_hat(xi, tol: float = 1e-10) -> complex:
    """Transform of the solid average: (1/2) int_{|t|<=1} e^{-2 pi i xi.curve(t)} dt."""
    _require_tol(tol)
    xi = np.asarray(xi, dtype=float)
    j_top = top_index(xi)
    if j_top == 0:
        return complex(1.0)
    p = _phase(xi[:j_top])
    return 0.5 * osc_integral(p, -1.0, 1.0, tol=tol)


@lru_cache(maxsize=None)
def _lipschitz_coeffs(d: int) -> np.ndarray:
    """L_j with |sigma_hat(eta) - 1| <= sum_j L_j |eta_j|: exact moment
    factors, built once per d and read-only."""
    js = np.arange(1, d + 1, dtype=float)
    out = 4.0 * math.pi * (1.0 - 2.0 ** -(js + 1.0)) / (js + 1.0)
    out.flags.writeable = False
    return out


def _normal_frequency(xi) -> np.ndarray:
    """xi as a float array; ValueError for a non-finite or subnormal coordinate.

    A subnormal xi_j carries fewer significant bits than the certified bounds
    assume (products such as L_j xi_j round coarsely), and for (xi_1, 0, ...)
    the decay prefactor 2 / (pi |xi_1|) leaves double range.
    """
    xi = np.asarray(xi, dtype=float)
    if not np.isfinite(xi).all():
        raise ValueError("coordinates must be finite")
    for j, v in enumerate(xi.ravel().tolist(), start=1):
        if 0.0 < abs(v) < sys.float_info.min:
            raise ValueError(f"xi_{j} = {v:.3g} is subnormal; nonzero "
                             f"coordinates need |xi_j| >= {sys.float_info.min:.3g}")
    return xi


def _integer_scales(ks) -> np.ndarray:
    """ks as a float array; ValueError naming a k that is not a finite
    integer.  Integers past the 64-bit range, such as -10**20, are kept;
    one past the double range, such as 10**400, is a ValueError."""
    try:
        ks = np.asarray(ks, dtype=float)
    except OverflowError:
        big = next(k for k in np.ravel(np.asarray(ks, dtype=object)).tolist()
                   if abs(k) > sys.float_info.max)
        # Decimal, not str: str refuses ints of more than 4300 digits
        raise ValueError(f"scale k must be a finite integer, got k = "
                         f"{Decimal(big):.3e}, past the double range") from None
    bad = ~np.isfinite(ks) | (ks != np.floor(ks))
    if bad.any():
        raise ValueError(f"scale k must be a finite integer, got "
                         f"k = {float(ks[bad].ravel()[0])}")
    return ks


def _dyadic_logs(xi, ks):
    """(logs, top): log |xi_j| + k j log 2 for each k in ks (rows) and each
    nonzero xi_j (columns), the logs of the terms of dyadic_phase_size, and
    the largest log of each row (-inf for the zero vector)."""
    xi = np.asarray(xi, dtype=float)
    nz = np.nonzero(xi)[0]
    logs = (np.log(np.abs(xi[nz]))
            + np.multiply.outer(np.asarray(ks, dtype=float), nz + 1.0) * _LN2)
    return logs, np.max(logs, axis=-1, initial=-math.inf)


def _phase_size(logs, top):
    """dyadic_phase_size from the logs of its terms and their largest."""
    # exp of the clipped logs, so that no overflow warns; no term sums to 0
    return np.where(top > 700.0, math.inf,
                    np.sum(np.exp(np.minimum(logs, 700.0)), axis=-1))


def dyadic_phase_size(xi, ks):
    """sum_j |xi_j| 2^{kj} for each k in ks (a float for one k), an upper
    proxy for total phase variation / 4 pi; inf where a term overflows.
    The profile's quadrature gate reads it (as _phase_size of the logs)."""
    out = _phase_size(*_dyadic_logs(xi, ks))
    return float(out) if out.ndim == 0 else out


def _lipschitz_size(xi, ks, j_lo: int = 0):
    """sum_{j > j_lo} L_j |xi_j| 2^{kj} for each k in ks (a float for one k);
    from j_lo = 0, the bound on |sigma_hat(delta_{2^k} xi) - 1|."""
    xi = np.asarray(xi, dtype=float)
    # L_j < 8, so L_j xi_j overflows only for |xi_j| near the double maximum;
    # there the sum is formed from xi / 8 and multiplied back
    scale = 8.0 if np.max(np.abs(xi)) > sys.float_info.max / 8.0 else 1.0
    weighted = _lipschitz_coeffs(len(xi)) * (xi / scale)
    weighted[:j_lo] = 0.0
    return dyadic_phase_size(weighted, ks) * scale


def sigma_hat_dyadics(xi, ks, tol=1e-10) -> np.ndarray:
    """sigma_hat(delta_{2^k} xi) for each k in ks, each to absolute
    tolerance tol, one tolerance for all k or one per k; nan where
    quadrature does not reach.

    One osc_integrals call covers every k: with m = k - k0,
    sigma_hat(delta_{2^k} xi) = 2^-m int_{2^{m-1} < |s| <= 2^m} e^{i phi(s)} ds
    for phi the phase of delta_{2^k0} xi, k0 = round(-log2 rho(xi)) keeping
    its coefficients near unit size.  Shell k is one group at tol 2^m tol_k;
    a group's result does not depend on the others, so each entry equals its
    one-k value bit for bit.  Where the Lipschitz bound (_lipschitz_size)
    on |sigma_hat - 1| is at most tol_k and below half an ulp of 1 the value
    is 1: within tol_k, and what quadrature would return up to rounding.  A
    shell whose edges or tolerance leave the normal double range, or whose
    phase size (dyadic_phase_size) overflows, is nan.  ValueError for a k
    that is not a finite integer.
    """
    for t in np.ravel(tol).tolist():
        _require_tol(t)
    xi = np.asarray(xi, dtype=float)
    ks = _integer_scales(ks).reshape(-1)           # any integer k, however large
    if top_index(xi) == 0:
        return np.ones(len(ks), dtype=complex)
    return _shells(xi, ks, tol, rho(xi))           # rho rejects non-finite xi


def _shells(xi, ks, tol, rho_xi: float, top_log=None) -> np.ndarray:
    """sigma_hat_dyadics for a nonzero xi with rho(xi) = rho_xi given, each
    shell k at its tolerance tol_k (tol a scalar or one value per k).

    top_log, when given, is the largest log of the terms of
    dyadic_phase_size(xi, ks) per k (from _dyadic_logs), which the caller
    has formed for its own quadrature gate."""
    ks = np.asarray(ks, dtype=float)
    tol = np.broadcast_to(np.asarray(tol, dtype=float), ks.shape)
    out = np.full(len(ks), np.nan, dtype=complex)
    j_top = top_index(xi)
    k0 = int(round(-math.log2(rho_xi)))
    settled = _lipschitz_size(xi, ks) <= np.minimum(tol, 0.5 * _ULP)
    out[settled] = 1.0

    m = ks - k0
    # of the shell's tolerance; math.log2 per entry, as numpy's vectorized
    # log2 may differ from it in the last bit
    log2_tol = m + np.array([math.log2(t) for t in tol.tolist()])
    # dyadic_phase_size is finite where no log of its terms passes 700
    if top_log is None:
        top_log = _dyadic_logs(xi, ks)[1]
    reach = (~settled & (top_log <= 700.0) & (m >= -1021) & (m <= 1023)
             & (log2_tol >= -1022.0) & (log2_tol <= 1023.0))
    m = m[reach].astype(int)
    outer = np.ldexp(1.0, m)
    sums = osc_integrals(
        _phase(np.ldexp(xi[:j_top], k0 * np.arange(1, j_top + 1))),
        np.concatenate([0.5 * outer, -outer]),
        np.concatenate([outer, -0.5 * outer]),
        np.tile(np.arange(len(m)), 2), outer * tol[reach])
    out[reach] = np.ldexp(sums.real, -m) + 1j * np.ldexp(sums.imag, -m)
    return out


def sigma_hat(xi, tol: float = 1e-10) -> complex:
    """Transform of the shell measure: int_{1/2<|t|<=1} e^{-2 pi i xi.curve(t)} dt.

    The k = 0 case of sigma_hat_dyadics; QuadratureError where it is nan."""
    z = complex(sigma_hat_dyadics(xi, (0,), tol)[0])
    if cmath.isnan(z):
        raise QuadratureError("sigma_hat beyond quadrature reach")
    return z


# --- certified upper bound for |sigma_hat| -------------------------------
#
# At scale k, q = phase' has degree D = j_top - 1 and largest coefficient
# M = max_j 2 pi j |xi_j| 2^{kj} <= kappa_D sup_[-1,1] |q| (exact Chebyshev
# coefficient sums).  The Remez inequality bounds |{|q| <= delta}| by
# sub(delta) = 4 / (1 + T_D^{-1}(M / (kappa_D delta))); off that set at most
# 2D monotone pieces with |q| >= delta give 3/delta each, so every delta > 0
# certifies 2 (min(sub(delta), 1/2) + 6D/delta).  For small delta, sub ~
# A delta^{1/D} with A = 8 (kappa_D / (2M))^{1/D}, and sigma_hat_upper_bound
# takes the exact sub at delta' = (6D^2 / A)^{D/(D+1)}, the minimizer of
# A delta^{1/D} + 6D/delta.  No cap by G 2^{-k} (_decay_prefactor: twice the
# closed-form minimum of 8 (kappa_D delta / M_top)^{1/D} + 6D/delta, with
# M_top <= M the top coefficient) is needed: 2 cosh(Du) <= (2 cosh u)^D gives
# sub(delta) <= A delta^{1/D} for every delta, and A <= 2^{-1/D} 8 (kappa_D /
# M_top)^{1/D}, so the Remez term is at most 2^{-1/(D+1)} G 2^{-k} wherever
# G 2^{-k} < 1; where delta' < 1, both terms exceed 1.


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


@lru_cache(maxsize=None)
def _tail_constant(deg: int) -> float:
    """c0 with min over delta of 8 (kappa delta / M)^{1/deg} + 6 deg / delta
    equal to c0 M^{-1/(deg+1)} for every M > 0."""
    kappa = _kappa(deg)
    a_pow = deg / (deg + 1.0)
    return (8.0**a_pow * kappa ** (1.0 / (deg + 1.0))
            * (6.0 * deg) ** (1.0 / (deg + 1.0))
            * (deg ** (1.0 / (deg + 1.0)) + deg ** (-a_pow)))


def _decay_prefactor(xi) -> float:
    """G with |sigma_hat(delta_{2^k} xi)| <= min(1, G 2^{-k}) for all k."""
    xi = np.asarray(xi, dtype=float)
    j_top = top_index(xi)
    if j_top == 0:
        raise ValueError("zero frequency")
    a = abs(xi[j_top - 1])
    if j_top == 1:
        if a > sys.float_info.max / math.pi:  # pi a would overflow to inf
            return 2.0 / math.pi / a
        return 2.0 / (math.pi * a)
    c0 = _tail_constant(j_top - 1)
    log_m1 = (math.log(2.0 * math.pi * j_top) + math.log(a)) / j_top
    return 2.0 * c0 * math.exp(-log_m1)


def sigma_hat_upper_bound(xi, ks):
    """Certified bound on |sigma_hat(delta_{2^k} xi)| for each k in ks (a
    float for one k); always <= 1.

    ValueError for a subnormal coordinate, where the bound rounds coarsely,
    and for a k that is not a finite integer."""
    xi = _normal_frequency(xi)
    ks = _integer_scales(ks)
    j_top = top_index(xi)
    if j_top == 0:
        return 1.0 if ks.ndim == 0 else np.ones(ks.shape)
    nz = np.nonzero(xi)[0]
    js = nz + 1.0
    # log M as a sum of logs, so that no factor overflows
    log_m = math.log(2.0 * math.pi) + np.max(
        np.log(js) + np.log(np.abs(xi[nz])) + np.multiply.outer(ks, js) * _LN2,
        axis=-1)
    if j_top == 1:
        # single-frequency piece integrates exactly: |int e^{ict}| <= 2/|c|
        out = np.minimum(1.0, 2.0 * np.exp(np.minimum(_LN2 - log_m, 0.0)))
    else:
        deg = j_top - 1
        log_kappa = math.log(_kappa(deg))
        pieces = 6.0 * deg
        log_a = math.log(8.0) + (log_kappa - _LN2 - log_m) / deg
        log_delta = deg / (deg + 1.0) * (math.log(pieces * deg) - log_a)
        # T_D^{-1}(x) = cosh(arccosh(x) / D) for x = exp(log_x) >= 1, where
        # arccosh(x) = log(2x) up to O(x^-2) past log_x = 40; the clips keep
        # the branches not taken finite
        log_x = log_m - log_kappa - log_delta
        y = np.where(log_x > 40.0, log_x + _LN2,
                     np.arccosh(np.exp(np.clip(log_x, 0.0, 40.0)))) / deg
        inv_t = np.where(log_x <= 0.0, 1.0, np.where(
            y > 700.0, math.inf, np.cosh(np.minimum(y, 700.0))))
        sub = 4.0 / (1.0 + inv_t)
        # > 1 for delta < 1 anyway
        osc = pieces * np.exp(-np.maximum(log_delta, 0.0))
        out = np.minimum(1.0, 2.0 * (np.minimum(sub, 0.5) + osc))
    return float(out) if out.ndim == 0 else out


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
