"""Dyadic multiplier profile of the curve measure minus its Poisson companion.

For nu_hat = sigma_hat - exp(-rho), the profile

    g(xi)^2 = sum_{k in Z} |nu_hat(delta_{2^k} xi)|^2

is exactly invariant under xi -> delta_2 xi (the sum reindexes), so its sup
over all frequencies is the sup over the annulus 1 <= rho(xi) < 2.  The sum
is evaluated over a finite window chosen so both infinite tails carry a
certificate: near k -> -infinity the small-argument Lipschitz bounds
|sigma_hat(eta) - 1| <= sum_j L_j |eta_j| and |exp(-rho) - 1| <= rho halve
from one k to the next, and near k -> +infinity the certified oscillation
bound and exp(-2^k rho) <= 1/(2^k rho) decay geometrically.  Each edge is
read off one evaluation of its tail bound over every scale it may reach.
Every entry, in the profile, in both induction terms and in nu_hat, comes
from _entries: closed form for a linear phase, quadrature while the total
phase variation is affordable, and otherwise the certified upper bound
itself, marked envelope-only, so the reported g never silently drops mass
(it may only overshoot).  Each entry also carries its certified floor, set
where its source is chosen, and the kernel term exp(-2^k rho) is one array
expression over the window, exactly 0 where 2^k rho overflows.  One l2
rule, sqrt(sum(x**2)) over a window's array, forms g, g_lower (from the
floors) and both induction terms; as each floor is at most its modulus and
the rule is monotone, g_lower <= g holds by construction.  A frequency's
quadrature entries take one pass of the quadrature engine over their
shells (curve_measure._shells, the body of sigma_hat_dyadics, given the
frequency's rho): the profile's window, or the near and far windows of
induction_diagnostics together, each shell at its own window's tolerance.
sup_search estimates sup g in one dimension; the growth experiment across
dimensions, with its padded starts and its fits against log(d+1), is
acceptance.log_growth.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .curve_measure import (DyadicWindow, sigma_hat_upper_bound, top_index,
                            _decay_prefactor, _dyadic_logs, _integer_scales,
                            _lipschitz_size, _normal_frequency, _phase_size,
                            _shells)
from .norms import _annulus_point, make_space, rho
from .oscillatory import QuadratureError, _require_tol
from .rng import family_stream

WINDOW_LIMIT = 200
PRACTICAL_PANEL_CAP = 1 << 16


def nu_hat(xi, k: int = 0, tol: float = 1e-10) -> complex:
    """sigma_hat(delta_{2^k} xi) - exp(-2^k rho(xi)); QuadratureError where
    only the certified envelope reaches, ValueError for a k that is not a
    finite integer."""
    _require_tol(tol)
    _integer_scales(k)
    xi = np.asarray(xi, dtype=float)
    # past the 64-bit integers every 2^k-scaled term has long over- or
    # underflowed, so such a k gives the entry at the nearest 64-bit k
    k64 = min(max(int(k), -2**63), 2**63 - 1)
    z = complex(_entries(xi, (k64,), float(rho(xi)), tol)[0][0])
    if cmath.isnan(z):
        raise QuadratureError(f"nu_hat beyond quadrature reach at k = {k}")
    return z


def _entries(vec, ks, rho_vec: float, quad_tol):
    """(values, moduli, floors) of nu_hat(delta_{2^k} vec) for k in ks, at
    quadrature tolerance quad_tol (one for all k or one per k).

    A purely linear phase integrates in closed form, which keeps entries
    exact at any scale and zero-padded frequencies identical in every
    ambient dimension.  General phases use quadrature while the total phase
    variation stays affordable; elsewhere, or when quadrature fails, the
    value is nan and the modulus is the certified envelope.  The floor is
    the certified lower bound on the modulus: the modulus itself in closed
    form, less quad_tol for quadrature, and 0 for an envelope entry.

    Quadrature takes one engine pass over the shells (curve_measure._shells,
    the body of sigma_hat_dyadics, given rho_vec and the largest log of the
    phase-size terms per k, which the gate has formed).
    """
    ks = np.asarray(ks)
    with np.errstate(over="ignore"):        # 2^k rho past range: exp(-inf) = 0
        p_hat = np.exp(-np.ldexp(rho_vec, ks))
    if top_index(vec) <= 1:
        with np.errstate(over="ignore", invalid="ignore"):
            eta = np.ldexp(vec[0], ks)
            values = 2.0 * np.sinc(2.0 * eta) - np.sinc(eta) - p_hat
        # sinc is nan only where pi 2^{k+1} |xi_1| overflows; eta is then an
        # even integer, as every double past 2^53 is, so both sines vanish
        values[np.isnan(values)] = 0.0
        mags = np.abs(values)
        return values, mags, mags
    quad_tol = np.broadcast_to(quad_tol, ks.shape)
    values = np.full(len(ks), np.nan, dtype=complex)
    # the logs of the phase-size terms, formed once: they gate quadrature
    # here and decide the shells' reach in _shells
    logs, top_log = _dyadic_logs(vec, ks)
    quad = 8.0 * _phase_size(logs, top_log) <= PRACTICAL_PANEL_CAP
    values[quad] = (_shells(vec, ks[quad], quad_tol[quad], rho_vec,
                            top_log[quad]) - p_hat[quad])
    mags = np.abs(values)
    env = np.isnan(mags)
    mags[env] = np.minimum(2.0, sigma_hat_upper_bound(vec, ks[env])
                           + p_hat[env])
    return values, mags, np.where(env, 0.0, np.maximum(mags - quad_tol, 0.0))


def _difference_bound(xi, rho_xi: float, j_lo: int, ks):
    """b(k) = 2^k rho_xi + sum_{j > j_lo} L_j |xi_j| 2^{kj} for each k in ks,
    which at least halves per step down: with j_lo = 0 and rho(xi), a bound
    on |nu_hat|; with rho(xi) - rho(y), on |nu_hat(xi) - nu_hat(y)| for y,
    xi truncated to its first j_lo coordinates."""
    return np.ldexp(rho_xi, ks) + _lipschitz_size(xi, ks, j_lo)


def _lower_tail_sq(xi, rho_xi: float, j_lo: int, ks):
    """Certified bound 4/3 b(k - 1)^2 for the sum over k' < k of the squared
    entries that b bounds, for each k in ks."""
    b = _difference_bound(xi, rho_xi, j_lo, ks - 1)
    return (4.0 / 3.0) * (b * b)


def _upper_tail_sq(g_decay: float, rho_xi: float, ks):
    """Certified bound for sum_{k' > k} |nu_hat(delta_{2^k'} xi)|^2 for each
    k in ks; inf where G 2^{-k-1} or 1 / (2^{k+1} rho_xi) exceeds 1."""
    with np.errstate(over="ignore"):            # G 2^{-k-1} past range is inf
        b_osc = np.ldexp(g_decay, -1 - ks)
        b_poi = 1.0 / np.ldexp(rho_xi, ks + 1)
        return np.where((b_osc > 1.0) | (b_poi > 1.0), math.inf,
                        (8.0 / 3.0) * (b_osc * b_osc + b_poi * b_poi))


def _window_edge(tail_sq, start: int, step: int, tol: float, where: str):
    """The first k of start, start + step, ... (at most WINDOW_LIMIT steps)
    whose tail_sq(k), the mass beyond it, is not above tol^2 / 2 or is nan,
    and that tail; tail_sq takes all the scales in one call."""
    ks = start + step * np.arange(WINDOW_LIMIT + 1)
    tails = tail_sq(ks)
    stop = np.flatnonzero(~(tails > 0.5 * tol * tol))
    if not stop.size:
        raise RuntimeError(f"window limit reached {where}")
    return int(ks[stop[0]]), float(tails[stop[0]])


def _window_tol(tol: float, ks) -> float:
    """tol / (8 sqrt(len(ks))), the quadrature tolerance of the window ks,
    which keeps the window's summed quadrature error within tol / 8."""
    return tol / (8.0 * math.sqrt(len(ks)))


def _window_entries(vec, ks, rho_vec: float, tol: float):
    """_entries over the window ks at its _window_tol; returns (values,
    moduli, floors, quad_tol)."""
    quad_tol = _window_tol(tol, ks)
    return _entries(vec, ks, rho_vec, quad_tol) + (quad_tol,)


def _profile_frequency(xi, tol: float):
    """(xi as a float array, rho(xi)); ValueError for a subnormal coordinate,
    the zero frequency or tol outside (0, 1)."""
    xi = _normal_frequency(xi)
    rho_xi = float(rho(xi))
    if not rho_xi > 0.0:
        raise ValueError("profile undefined at the zero frequency")
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    return xi, rho_xi


@dataclass(frozen=True)
class MultiplierProfile:
    xi: tuple
    window: DyadicWindow
    values: tuple               # |nu_hat| per k (quadrature or certified bound)
    envelope_only: tuple        # ks where the bound stood in for quadrature
    tail_bound: float           # certified l2 mass outside the window
    g_value: float
    g_lower: float              # l2 of the entries' certified floors
    quad_tol: float


def g_profile(xi, tol: float = 1e-3) -> MultiplierProfile:
    """Evaluate the profile at one frequency with certified truncation tails."""
    xi, rho_xi = _profile_frequency(xi, tol)
    k_center = int(round(-math.log2(rho_xi)))
    k_lo, lo_sq = _window_edge(lambda ks: _lower_tail_sq(xi, rho_xi, 0, ks),
                               k_center, -1, tol, "expanding the lower tail")
    k_hi, hi_sq = _window_edge(
        lambda ks: _upper_tail_sq(_decay_prefactor(xi), rho_xi, ks),
        max(k_center, k_lo), 1, tol, "expanding the upper tail")

    ks = range(k_lo, k_hi + 1)
    zs, values, floors, quad_tol = _window_entries(xi, ks, rho_xi, tol)
    return MultiplierProfile(
        xi=tuple(float(v) for v in xi),
        window=DyadicWindow(k_lo, k_hi),
        values=tuple(float(v) for v in values),
        envelope_only=tuple(k for k, z in zip(ks, zs) if np.isnan(z)),
        tail_bound=math.sqrt(lo_sq + hi_sq),
        g_value=float(np.sqrt(np.sum(values**2))),
        g_lower=float(np.sqrt(np.sum(floors**2))),
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
    drives the dimensional induction.  xi's entries over both windows take
    one engine pass, y's a second.
    """
    xi, rho_xi = _profile_frequency(xi, tol)
    d = len(xi)
    if d < 2 or d & (d - 1):
        raise ValueError("diagnostics need d = 2^n with n >= 1")

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

    # far piece: k > k_split, upper tail certified as in g_profile
    k_hi, far_tail_sq = _window_edge(
        lambda ks: _upper_tail_sq(_decay_prefactor(xi), rho_xi, ks),
        k_split + 1, 1, tol, "in the far term")
    far_ks = np.arange(k_split + 1, k_hi + 1)
    # near piece: k <= k_split, difference against the truncated frequency
    k_lo, near_tail_sq = _window_edge(
        lambda ks: _lower_tail_sq(xi, rho_xi - rho_y, half, ks), k_split, -1,
        tol, "in the near term")
    near_ks = np.arange(k_lo, k_split + 1)

    # xi's entries over both windows in one pass, each at its window's
    # tolerance; a shell's entry does not depend on the others in the pass
    n_near = len(near_ks)
    zs, mags, _ = _entries(
        xi, np.arange(k_lo, k_hi + 1), rho_xi,
        np.repeat([_window_tol(tol, near_ks), _window_tol(tol, far_ks)],
                  [n_near, len(far_ks)]))
    zx, vx, zs, mags = zs[:n_near], mags[:n_near], zs[n_near:], mags[n_near:]
    envelope = far_ks[np.isnan(zs)].tolist()
    zy, vy, _, _ = _window_entries(y, near_ks, rho_y, tol)
    # where either entry is beyond quadrature, the difference is at most the
    # sum of the moduli and at most b(k)
    apart = np.isnan(zx) | np.isnan(zy)
    b = _difference_bound(xi, rho_xi - rho_y, half, near_ks)
    ws = np.where(apart, np.minimum(np.minimum(4.0, vx + vy), b),
                  np.abs(zx - zy))
    envelope += near_ks[apart].tolist()

    return InductionDiagnostics(
        xi=tuple(xi), y=tuple(y), j_pivot=j_pivot, threshold=threshold,
        term_far=float(np.sqrt(np.sum(mags**2))),
        term_near=float(np.sqrt(np.sum(ws**2))),
        term_far_tail=math.sqrt(far_tail_sq),
        term_near_tail=math.sqrt(near_tail_sq),
        envelope_ks=tuple(envelope),
    )


@dataclass(frozen=True)
class GrowthRow:
    d: int
    sup_estimate: float
    g_lower: float              # at the argmax
    sup_g_lower: float          # largest g_lower evaluated
    envelope_share: float       # envelope-only share of the argmax's entries
    tail_bound: float
    evals: int
    argmax: tuple


def sup_search(d: int, budget: int = 1000, seed: int = 0, *, tol: float,
               extra_starts=()) -> GrowthRow:
    """Deterministic random multistart plus compass refinement for sup g.

    Every reported estimate is an evaluation at a concrete frequency, hence a
    genuine lower bound for the sup up to the profile's quadrature tolerance;
    sup_g_lower, the largest g_lower evaluated, strips even that.  Ties
    prefer the lexicographically smaller point so reruns and padded re-seeds
    resolve identically.
    """
    if budget < 4:
        raise ValueError("budget too small to search")
    make_space(d)
    rng = family_stream(seed, "sup-search", d)
    evals = 0
    best = None  # the profile of the best point so far
    sup_lower = 0.0

    def consider(vec) -> bool:
        nonlocal evals, best, sup_lower
        prof = g_profile(vec, tol=tol)
        evals += 1
        sup_lower = max(sup_lower, prof.g_lower)
        key = (prof.g_value, tuple(-v for v in prof.xi))
        if best is None or key > (best.g_value, tuple(-v for v in best.xi)):
            best = prof
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
        consider(_annulus_point(rng, d))

    step = 0.25
    while evals < budget and step >= 1e-3:
        base = np.asarray(best.xi)
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

    return GrowthRow(d=d, sup_estimate=best.g_value, g_lower=best.g_lower,
                     sup_g_lower=sup_lower,
                     envelope_share=len(best.envelope_only) / len(best.values),
                     tail_bound=best.tail_bound, evals=evals, argmax=best.xi)
