"""Dyadic multiplier profile of the curve measure minus its Poisson companion.

For nu_hat = sigma_hat - exp(-rho), the profile

    g(xi)^2 = sum_{k in Z} |nu_hat(delta_{2^k} xi)|^2

is exactly invariant under xi -> delta_2 xi (the sum reindexes), so its sup
over all frequencies is the sup over the annulus 1 <= rho(xi) < 2.  The sum
is evaluated over a finite window chosen so both infinite tails carry a
certificate: near k -> -infinity the small-argument Lipschitz bounds
|sigma_hat(eta) - 1| <= sum_j L_j |eta_j| and |exp(-rho) - 1| <= rho halve
from one k to the next, and near k -> +infinity the certified oscillation
bound and exp(-2^k rho) <= 1/(2^k rho) decay geometrically.  Every entry,
in the profile, in both induction terms and in nu_hat, comes from _entries:
closed form for a linear phase, quadrature while the total phase variation
is affordable, and otherwise the certified upper bound itself, marked
envelope-only, so the reported g never silently drops mass (it may only
overshoot, and g_lower tracks the quadrature-only certified floor).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .curve_measure import (DyadicWindow, dyadic_phase_size, sigma_hat_dyadic,
                            sigma_hat_upper_bound, top_index, _kappa)
from .norms import dilate, rho
from .oscillatory import QuadratureError
from .rng import family_stream

WINDOW_LIMIT = 200
PRACTICAL_PANEL_CAP = 1 << 16


def nu_hat(xi, k: int = 0, tol: float = 1e-10) -> complex:
    """sigma_hat(delta_{2^k} xi) - exp(-2^k rho(xi)); QuadratureError where
    only the certified envelope reaches."""
    xi = np.asarray(xi, dtype=float)
    z = complex(_entries(xi, (k,), float(rho(xi)), tol)[0][0])
    if cmath.isnan(z):
        raise QuadratureError(f"nu_hat beyond quadrature reach at k = {k}")
    return z


def _poisson_hat(k: int, rho_vec: float) -> float:
    """exp(-2^k rho), flushed to zero where it underflows."""
    scale = math.ldexp(rho_vec, k)
    return math.exp(-scale) if scale < 700.0 else 0.0


def _entries(vec, ks, rho_vec: float, quad_tol: float):
    """(values, moduli, exact) of nu_hat(delta_{2^k} vec) for k in ks.

    A purely linear phase integrates in closed form (exact), which keeps
    entries exact at any scale and zero-padded frequencies identical in
    every ambient dimension.  General phases use quadrature while the total
    phase variation stays affordable; elsewhere, or when quadrature fails,
    the value is nan and the modulus is the certified envelope.
    """
    exact = top_index(vec) <= 1
    values = np.full(len(ks), np.nan, dtype=complex)
    mags = np.empty(len(ks))
    for i, k in enumerate(ks):
        p_hat = _poisson_hat(k, rho_vec)
        z = None
        if exact:
            eta = math.ldexp(vec[0], k)
            z = complex(2.0 * np.sinc(2.0 * eta) - np.sinc(eta) - p_hat)
        elif 8.0 * dyadic_phase_size(vec, k) <= PRACTICAL_PANEL_CAP:
            try:
                z = sigma_hat_dyadic(vec, k, tol=quad_tol) - p_hat
            except QuadratureError:
                pass
        if z is None:
            mags[i] = min(2.0, sigma_hat_upper_bound(vec, k) + p_hat)
        else:
            values[i] = z
            mags[i] = abs(z)
    return values, mags, exact


def _normal_frequency(xi) -> np.ndarray:
    """xi as a float array; ValueError naming the first subnormal coordinate.

    A subnormal xi_j carries fewer significant bits than the certified bounds
    assume (products such as L_j xi_j round coarsely), and for (xi_1, 0, ...)
    the decay prefactor 2 / (pi |xi_1|) leaves double range.
    """
    xi = np.asarray(xi, dtype=float)
    for j, v in enumerate(xi.ravel().tolist(), start=1):
        if 0.0 < abs(v) < sys.float_info.min:
            raise ValueError(f"xi_{j} = {v:.3g} is subnormal; nonzero "
                             f"coordinates need |xi_j| >= {sys.float_info.min:.3g}")
    return xi


def _lipschitz_coeffs(d: int) -> np.ndarray:
    """L_j with |sigma_hat(eta) - 1| <= sum_j L_j |eta_j|: exact moment factors."""
    js = np.arange(1, d + 1, dtype=float)
    return 4.0 * math.pi * (1.0 - 2.0 ** -(js + 1.0)) / (js + 1.0)


def _small_scale_bound(xi, k: int, rho_xi: float, j_lo: int = 0) -> float:
    """Upper bound for |nu_hat(delta_{2^k} xi)| in the small-argument regime.

    Restricting to coordinates j > j_lo also bounds the sigma_hat difference
    between xi and its truncation to the first j_lo coordinates.
    """
    xi = np.asarray(xi, dtype=float)
    weighted = _lipschitz_coeffs(len(xi)) * xi
    weighted[:j_lo] = 0.0
    return math.ldexp(rho_xi, k) + dyadic_phase_size(weighted, k)


@lru_cache(maxsize=None)
def _tail_constant(deg: int) -> float:
    """Closed-form constant c0 with |piece integral| <= c0 * M^{-1/(deg+1)}.

    Optimizes the Remez sublevel bound 8 (kappa delta / M)^{1/deg} against the
    monotone-piece estimate 6 deg / delta in closed form.
    """
    kappa = _kappa(deg)
    a_pow = deg / (deg + 1.0)
    return (8.0**a_pow * kappa ** (1.0 / (deg + 1.0))
            * (6.0 * deg) ** (1.0 / (deg + 1.0))
            * (deg ** (1.0 / (deg + 1.0)) + deg ** (-a_pow)))


def _upper_tail_sq(g_decay: float, rho_xi: float, k_last: int) -> float:
    """Certified bound for sum_{k > k_last} |nu_hat(delta_{2^k} xi)|^2."""
    try:
        b_osc = math.ldexp(g_decay, -(k_last + 1))
    except OverflowError:
        return math.inf
    b_poi = 1.0 / math.ldexp(rho_xi, k_last + 1)
    if b_osc > 1.0 or b_poi > 1.0:
        return math.inf
    return (8.0 / 3.0) * (b_osc * b_osc + b_poi * b_poi)


def _window_edge(tail_sq, start: int, step: int, half_target: float,
                 where: str) -> int:
    """Step k outward from start until tail_sq(k), the mass beyond it, fits."""
    k = start
    while tail_sq(k) > half_target:
        k += step
        if step * (k - start) > WINDOW_LIMIT:
            raise RuntimeError(f"window limit reached {where}")
    return k


def _decay_prefactor(xi) -> float:
    """G with |sigma_hat(delta_{2^k} xi)| <= min(1, G 2^{-k}) for all k."""
    xi = np.asarray(xi, dtype=float)
    j_top = top_index(xi)
    if j_top == 0:
        raise ValueError("zero frequency")
    a = abs(xi[j_top - 1])
    if j_top == 1:
        return 2.0 / (math.pi * a)
    c0 = _tail_constant(j_top - 1)
    log_m1 = (math.log(2.0 * math.pi * j_top) + math.log(a)) / j_top
    return 2.0 * c0 * math.exp(-log_m1)


@dataclass(frozen=True)
class MultiplierProfile:
    xi: tuple
    window: DyadicWindow
    values: tuple               # |nu_hat| per k (quadrature or certified bound)
    envelope_only: tuple        # ks where the bound stood in for quadrature
    tail_bound: float           # certified l2 mass outside the window
    g_value: float
    g_lower: float              # quadrature-only certified lower bound
    quad_tol: float


def g_profile(xi, tol: float = 1e-3) -> MultiplierProfile:
    """Evaluate the profile at one frequency with certified truncation tails."""
    xi = _normal_frequency(xi)
    rho_xi = float(rho(xi))
    if not rho_xi > 0.0:
        raise ValueError("profile undefined at the zero frequency")
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must lie in (0, 1)")

    half_target = 0.5 * tol * tol
    k_center = int(round(-math.log2(rho_xi)))

    def lower_tail_sq(k_first: int) -> float:
        return (4.0 / 3.0) * _small_scale_bound(xi, k_first - 1, rho_xi) ** 2

    upper_tail_sq = partial(_upper_tail_sq, _decay_prefactor(xi), rho_xi)
    k_lo = _window_edge(lower_tail_sq, k_center, -1, half_target,
                        "expanding the lower tail")
    k_hi = _window_edge(upper_tail_sq, max(k_center, k_lo), 1, half_target,
                        "expanding the upper tail")

    ks = range(k_lo, k_hi + 1)
    quad_tol = tol / (8.0 * math.sqrt(len(ks)))
    zs, values, exact = _entries(xi, ks, rho_xi, quad_tol)
    reached = ~np.isnan(zs)
    lower_sq = 0.0
    for val in values[reached].tolist():
        lower_sq += (val if exact else max(val - quad_tol, 0.0)) ** 2

    tail_sq = lower_tail_sq(k_lo) + upper_tail_sq(k_hi)
    g_value = float(np.sqrt(np.sum(values**2)))
    return MultiplierProfile(
        xi=tuple(float(v) for v in xi),
        window=DyadicWindow(k_lo, k_hi),
        values=tuple(float(v) for v in values),
        envelope_only=tuple(k for k, z in zip(ks, zs) if np.isnan(z)),
        tail_bound=math.sqrt(tail_sq),
        g_value=g_value,
        # summation order can drift a few ulps; a lower bound must not exceed
        # the value it certifies
        g_lower=min(math.sqrt(lower_sq), g_value),
        quad_tol=quad_tol,
    )


@dataclass(frozen=True)
class InductionDiagnostics:
    xi: tuple
    y: tuple                    # top half zeroed out
    j_pivot: int                # argmax of |xi_j|^{1/j} over the top block
    threshold: float            # A = |xi_{j_pivot}|^{-1/j_pivot}
    term_far: float             # l2 of |nu_hat| over 2^k > A, with tail
    term_near: float            # l2 of |nu_hat(xi)-nu_hat(y)| over 2^k <= A
    term_far_tail: float
    term_near_tail: float
    envelope_ks: tuple


def induction_diagnostics(xi, tol: float = 1e-3) -> InductionDiagnostics:
    """Split the profile at the top-block threshold scale A.

    Far scales (2^k > A) are summed on their own; near scales compare the
    full frequency against its truncation y to the lower half coordinates.
    Both pieces carry certified tails, mirroring the two-term estimate that
    drives the dimensional induction.
    """
    xi = _normal_frequency(xi)
    d = len(xi)
    if d < 2 or d & (d - 1):
        raise ValueError("diagnostics need d = 2^n with n >= 1")
    rho_xi = float(rho(xi))
    if not rho_xi > 0.0:
        raise ValueError("zero frequency")

    half = d // 2
    y = xi.copy()
    y[half:] = 0.0
    rho_y = float(rho(y)) if np.any(y) else 0.0

    top = np.abs(xi[half:]) ** (1.0 / np.arange(half + 1, d + 1))
    j_pivot = half + 1 + int(np.argmax(top))
    size = float(np.max(top))
    if size == 0.0:
        return InductionDiagnostics(xi=tuple(xi), y=tuple(y), j_pivot=j_pivot,
                                    threshold=math.inf, term_far=0.0,
                                    term_near=0.0, term_far_tail=0.0,
                                    term_near_tail=0.0, envelope_ks=())
    threshold = 1.0 / size
    k_split = math.floor(math.log2(threshold))

    half_target = 0.5 * tol * tol

    # far piece: k > k_split, upper tail certified as in g_profile
    far_tail_sq = partial(_upper_tail_sq, _decay_prefactor(xi), rho_xi)
    k_hi = _window_edge(far_tail_sq, k_split + 1, 1, half_target,
                        "in the far term")
    far_ks = range(k_split + 1, k_hi + 1)
    zs, mags, _ = _entries(xi, far_ks, rho_xi,
                           tol / (8.0 * math.sqrt(len(far_ks))))
    far_sq = 0.0
    for v in mags.tolist():
        far_sq += v * v
    envelope = [k for k, z in zip(far_ks, zs) if np.isnan(z)]

    # near piece: k <= k_split, difference against the truncated frequency
    gap = rho_xi - rho_y

    def near_tail_sq(k_first: int) -> float:
        osc = _small_scale_bound(xi, k_first - 1, 0.0, j_lo=half)
        return (4.0 / 3.0) * (osc + math.ldexp(gap, k_first - 1)) ** 2

    k_lo = _window_edge(near_tail_sq, k_split, -1, half_target,
                        "in the near term")
    near_ks = range(k_lo, k_split + 1)
    quad_tol = tol / (8.0 * math.sqrt(len(near_ks)))
    zx, vx, _ = _entries(xi, near_ks, rho_xi, quad_tol)
    zy, vy, _ = _entries(y, near_ks, rho_y, quad_tol)
    near_sq = 0.0
    for k, a, b, va, vb in zip(near_ks, zx.tolist(), zy.tolist(),
                               vx.tolist(), vy.tolist()):
        if cmath.isnan(a) or cmath.isnan(b):
            w = min(4.0, va + vb)
            envelope.append(k)
        else:
            w = abs(a - b)
        near_sq += w * w

    return InductionDiagnostics(
        xi=tuple(xi), y=tuple(y), j_pivot=j_pivot, threshold=threshold,
        term_far=math.sqrt(far_sq), term_near=math.sqrt(near_sq),
        term_far_tail=math.sqrt(far_tail_sq(k_hi)),
        term_near_tail=math.sqrt(near_tail_sq(k_lo)),
        envelope_ks=tuple(envelope),
    )


@dataclass(frozen=True)
class GrowthRow:
    d: int
    sup_estimate: float
    argmax: tuple
    evals: int
    seed: int
    tail_bound: float
    g_lower: float


@dataclass(frozen=True)
class GrowthTable:
    rows: tuple
    fit_slope: float
    fit_intercept: float
    residuals: tuple


def sup_search(d: int, budget: int = 1000, seed: int = 0, tol: float = 2e-3,
               extra_starts=()) -> GrowthRow:
    """Deterministic random multistart plus compass refinement for sup g.

    Every reported estimate is an evaluation at a concrete frequency, hence a
    genuine lower bound for the sup up to the profile's quadrature tolerance
    (g_lower strips even that).  Ties prefer the lexicographically smaller
    point so reruns and padded re-seeds resolve identically.
    """
    if budget < 4:
        raise ValueError("budget too small to search")
    rng = family_stream(seed, "sup-search", d)
    evals = 0
    best = None  # (g_value, xi tuple, profile)

    def consider(vec) -> bool:
        nonlocal evals, best
        prof = g_profile(vec, tol=tol)
        evals += 1
        key = (prof.g_value, tuple(-v for v in prof.xi))
        if best is None or key > (best[0].g_value, tuple(-v for v in best[0].xi)):
            best = (prof,)
            return True
        return False

    for start in extra_starts:
        if evals >= budget:
            break
        consider(np.asarray(start, dtype=float))

    n_random = max(4, int(0.55 * (budget - evals)))
    for _ in range(n_random):
        if evals >= budget:
            break
        v = rng.standard_normal(d)
        r = rng.uniform(1.0, 2.0)
        consider(dilate(v, r / rho(v)))

    step = 0.25
    while evals < budget and step >= 1e-3:
        base = np.asarray(best[0].xi)
        scale = rho(base) ** np.arange(1.0, d + 1.0)
        moved = False
        for j in range(d):
            for sign in (1.0, -1.0):
                if evals >= budget:
                    break
                cand = base.copy()
                cand[j] += sign * step * scale[j]
                if not np.any(cand):
                    continue
                moved = consider(cand) or moved
        if not moved:
            step *= 0.5

    prof = best[0]
    return GrowthRow(d=d, sup_estimate=prof.g_value, argmax=prof.xi,
                     evals=evals, seed=seed, tail_bound=prof.tail_bound,
                     g_lower=prof.g_lower)


def log_growth_experiment(d_list=(1, 2, 4, 8, 16), budget: int = 1000,
                          seed: int = 0, tol: float = 2e-3) -> GrowthTable:
    """sup g across dimensions with a log fit.

    Each dimension's search is seeded with the previous argmax zero-padded to
    the new dimension; the profile treats padded vectors identically in any
    ambient dimension, so the estimates are monotone along the list by
    construction.
    """
    rows = []
    prev = None
    for d in d_list:
        starts = []
        if prev is not None and len(prev) < d:
            starts.append(tuple(prev) + (0.0,) * (d - len(prev)))
        rows.append(sup_search(d, budget=budget, seed=seed, tol=tol,
                               extra_starts=starts))
        if prev is None or len(prev) <= d:
            prev = rows[-1].argmax
    xs = np.log(np.array([r.d for r in rows], dtype=float) + 1.0)
    ys = np.array([r.sup_estimate for r in rows])
    if len(rows) >= 2:
        slope, intercept = np.polyfit(xs, ys, 1)
    else:
        slope, intercept = 0.0, float(ys[0])
    resid = ys - (slope * xs + intercept)
    return GrowthTable(rows=tuple(rows), fit_slope=float(slope),
                       fit_intercept=float(intercept),
                       residuals=tuple(float(r) for r in resid))
