"""Oscillatory integrals of polynomial phases and sublevel estimates.

One panel engine, osc_integrals, integrates exp(i p) for one phase p over
many intervals, each in a group with its own tolerance.  It cuts the
intervals at the real roots of p' and p'', bisects the pieces to at most
SPAN = 4 pi of monotone phase, and applies the Gauss-Kronrod 7/15 pair
(Kronrod 1965; QUADPACK's qk15, Piessens et al. 1983) from 15 exponentials
per panel, with |K15 - G7| as the panel's error.  Only groups whose summed
error exceeds their tolerance refine, halving their worst panels, so panel
sizes follow the error estimate.  A group whose tolerance is below the
rounding floor of its panels fails at once, and PANEL_CAP and a pass limit
bound the rest, so a runaway request becomes an explicit failure:
osc_integral, the one-interval case, raises QuadratureError.  No Filon-type
machinery is needed at desk scale; cost grows linearly with the total phase
variation.  sublevel_measure cuts [a, b] at the roots of p -/+ delta.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

MAX_DEGREE = 64
PANEL_CAP = 1 << 20
SPAN = 4.0 * np.pi      # largest phase span of a panel before any refinement
_PASSES = 64            # bisection passes allowed per stage
_CHUNK = 1 << 14        # panels per block of exponentials
_ROUNDING = 8.0 * np.finfo(float).eps   # see _rounding_floor

# Gauss-Kronrod 7/15 on [-1, 1] (QUADPACK qk15): the Kronrod nodes x_0 > ...
# > x_7 = 0 and their weights; the Gauss nodes are x_1, x_3, x_5 and x_7.
_XK = np.array([0.991455371120812639206854697526329,
                0.949107912342758524526189684047851,
                0.864864423359769072789712788640926,
                0.741531185599394439863864773280788,
                0.586087235467691130294144845693013,
                0.405845151377397166906606412076961,
                0.207784955007898467600689403773245, 0.0])
_WK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
       0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
       0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
       0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
_NODES = np.concatenate([_XK, -_XK[:7]])[:, None]   # x_0..x_7, -x_0..-x_6


class QuadratureError(RuntimeError):
    """Raised when the tolerance is not met within the panel budget or lies
    below the rounding floor."""


@dataclass(frozen=True)
class PhasePoly:
    """Real polynomial b_0 + b_1 t + ... + b_d t^d used as an oscillation phase.

    ``coeffs`` holds b_1..b_d; the constant term is kept separate because the
    oscillation bounds never see it while the sublevel measures do.
    """

    coeffs: tuple = ()
    constant: float = 0.0

    def __post_init__(self):
        cs = tuple(float(c) for c in self.coeffs)
        if len(cs) > MAX_DEGREE:
            raise ValueError(f"degree cap is {MAX_DEGREE}")
        if not all(np.isfinite(cs)) or not np.isfinite(self.constant):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "constant", float(self.constant))

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def full_coeffs(self) -> np.ndarray:
        """Power-basis coefficients [b_0, b_1, ..., b_d]."""
        return np.array((self.constant,) + self.coeffs, dtype=float)

    def __call__(self, t):
        return np.polynomial.polynomial.polyval(np.asarray(t, dtype=float),
                                                self.full_coeffs())


def _real_roots(coeffs: np.ndarray) -> np.ndarray:
    """Real roots of a power-basis polynomial, sorted, each once; a root
    counts as real when its imaginary part is within 1e-9 of its modulus."""
    c = coeffs[:np.flatnonzero(coeffs)[-1] + 1] if coeffs.any() else coeffs[:0]
    if len(c) <= 1:
        return np.empty(0)
    roots = np.polynomial.polynomial.polyroots(c)
    return np.unique(roots[np.abs(roots.imag) <= 1e-9 * np.abs(roots)].real)


def _cut(lo, hi, grp, points):
    """The intervals [lo, hi] cut at every point strictly inside them."""
    inside = (points > lo[:, None]) & (points < hi[:, None])
    owner, which = np.nonzero(inside)
    owner = np.concatenate([np.arange(len(lo)), owner])
    start = np.concatenate([lo, points[which]])
    order = np.lexsort((start, owner))
    owner, start = owner[order], start[order]
    last = np.ones(len(owner), dtype=bool)
    last[:-1] = owner[1:] != owner[:-1]
    end = np.empty_like(start)
    end[:-1] = start[1:]
    end[last] = hi[owner[last]]
    return start, end, grp[owner]


def _kronrod(p: PhasePoly, lo: np.ndarray, hi: np.ndarray):
    """K15 value and |K15 - G7| of exp(i p) on each panel, from one set of
    15 exponentials per panel; the weights go in by multiply and add, node
    pair by node pair, so a panel's bits never depend on its neighbours."""
    vals = np.empty(len(lo), dtype=complex)
    errs = np.empty(len(lo), dtype=float)
    for start in range(0, len(lo), _CHUNK):
        sl = slice(start, start + _CHUNK)
        half = 0.5 * (hi[sl] - lo[sl])
        f = np.exp(1j * p(0.5 * (lo[sl] + hi[sl]) + half * _NODES))
        pair = f[:7] + f[8:]
        k15 = _WK[7] * f[7]
        for j in range(7):
            k15 = k15 + _WK[j] * pair[j]
        g7 = _WG[3] * f[7]
        for i, j in enumerate((1, 3, 5)):
            g7 = g7 + _WG[i] * pair[j]
        vals[sl] = k15 * half
        errs[sl] = np.abs(k15 - g7) * half
    return vals, errs


def _rounding_floor(p: PhasePoly, lo: np.ndarray, hi: np.ndarray):
    """Per panel, 8 eps (hi - lo) (1 + sum_j |b_j| r^j), r = max(|lo|, |hi|).

    The phase carries an absolute rounding error of a few eps times
    sum_j |b_j| r^j, so an |K15 - G7| this small may be rounding alone and
    halving the panel cannot be relied on to shrink it; measured estimates
    on panels too short to hold any quadrature error stay below half of it.
    """
    r = np.maximum(np.abs(lo), np.abs(hi))
    size = np.polynomial.polynomial.polyval(r, np.abs(p.full_coeffs()))
    return _ROUNDING * (hi - lo) * (1.0 + size)


def _split(bad: np.ndarray, lo: np.ndarray, hi: np.ndarray, grp: np.ndarray):
    """Panels with the flagged ones halved: the others first, then the left
    halves, then the right halves, each in their previous order."""
    mid = 0.5 * (lo[bad] + hi[bad])
    return (np.concatenate([lo[~bad], lo[bad], mid]),
            np.concatenate([hi[~bad], mid, hi[bad]]),
            np.concatenate([grp[~bad], grp[bad], grp[bad]]))


def osc_integrals(p: PhasePoly, lo, hi, group, tol) -> np.ndarray:
    """Per group g, the sum over its intervals [lo_i, hi_i] (group_i = g) of
    int exp(i p(t)) dt to absolute tolerance tol[g]; nan for a group that
    does not converge.  Intervals must be finite with lo < hi.

    A group still open with no panel above both its share tol[g] / (2 n_g)
    of the tolerance and its rounding floor (_rounding_floor) fails at once:
    its tolerance is below what rounding lets the estimate resolve, and
    halving further would only spend the panel budget.

    Groups are numbered 0 .. len(tol) - 1.  Each panel keeps its group's
    relative order through every split, and a group's sums run through its
    panels in that order (bincount), so its result does not depend on the
    other groups sharing the call.
    """
    tol = np.asarray(tol, dtype=float)
    n = len(tol)
    out = np.full(n, np.nan, dtype=complex)
    d1 = p.full_coeffs()[1:] * np.arange(1.0, p.degree + 1)    # p'
    d2 = d1[1:] * np.arange(1.0, p.degree)                    # p''
    crit = np.concatenate([_real_roots(d1), _real_roots(d2)])
    lo, hi, grp = _cut(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float),
                       np.asarray(group, dtype=np.intp), np.unique(crit))

    def drop(lost, *arrays):
        """The per-panel arrays without the panels of the lost groups."""
        keep = ~lost[grp]
        return tuple(a[keep] for a in arrays)

    def over_cap(bad):
        count = np.bincount(grp, minlength=n)
        return count + np.bincount(grp, bad, minlength=n) > PANEL_CAP

    # Bisect until each monotone piece spans at most SPAN of phase.
    bad = np.abs(p(hi) - p(lo)) > SPAN
    for _ in range(_PASSES):
        if not bad.any():
            break
        bad, lo, hi, grp = drop(over_cap(bad), bad, lo, hi, grp)
        lo, hi, grp = _split(bad, lo, hi, grp)
        bad = np.abs(p(hi) - p(lo)) > SPAN
    lo, hi, grp = drop(np.bincount(grp, bad, minlength=n) > 0, lo, hi, grp)

    vals, errs = _kronrod(p, lo, hi)
    for _ in range(_PASSES):
        count = np.bincount(grp, minlength=n)
        err = np.bincount(grp, errs, minlength=n)
        done = (count > 0) & (err <= tol)
        if done.any():
            out[done] = (np.bincount(grp, vals.real, minlength=n)[done]
                         + 1j * np.bincount(grp, vals.imag, minlength=n)[done])
        lo, hi, vals, errs, grp = drop(done, lo, hi, vals, errs, grp)
        if not len(grp):
            break
        bad = errs > (tol / (2.0 * np.maximum(count, 1)))[grp]
        bad[bad] = errs[bad] > _rounding_floor(p, lo[bad], hi[bad])
        stuck = np.bincount(grp, bad, minlength=n) == 0
        bad, lo, hi, vals, errs, grp = drop(stuck | over_cap(bad), bad, lo, hi,
                                            vals, errs, grp)
        lo, hi, grp = _split(bad, lo, hi, grp)
        kept = np.count_nonzero(~bad)
        new_vals, new_errs = _kronrod(p, lo[kept:], hi[kept:])
        vals = np.concatenate([vals[~bad], new_vals])
        errs = np.concatenate([errs[~bad], new_errs])
    return out


def _require_tol(tol: float) -> None:
    """The rule at every public tol entry: finite and positive."""
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")


def osc_integral(p: PhasePoly, a: float, b: float,
                 tol: float = 1e-10) -> complex:
    """Evaluate int_a^b exp(i p(t)) dt to absolute tolerance tol."""
    if not (np.isfinite(a) and np.isfinite(b)) or a >= b:
        raise ValueError("need finite a < b")
    _require_tol(tol)
    if p.degree == 0 or not any(p.coeffs):
        return (b - a) * np.exp(1j * p.constant)
    z = complex(osc_integrals(p, [a], [b], [0], [tol])[0])
    if cmath.isnan(z):
        raise QuadratureError(f"no estimate within tol {tol:.3e} in "
                              f"{PANEL_CAP} panels and {_PASSES} passes "
                              f"above the rounding floor")
    return z


def sublevel_measure(p: PhasePoly, a: float, b: float, delta: float,
                     grid_points=None) -> float:
    """Lebesgue measure of {t in [a, b] : |p(t)| <= delta}, exact up to roots.

    [a, b] is cut at the real part of every computed root of p -/+ delta and
    of its first two Newton steps (an extra cut cannot change the measure, a
    missed one could), and the signs of p -/+ delta at a piece's midpoint
    decide it.  The roots are those of p(2^e s), 2^e > max(|a|, |b|), after
    top terms below eps of the largest are dropped, which moves p on [a, b]
    only by rounding; monic coefficients built exponent by exponent cannot
    overflow.  The error is at most the sum of the root errors at the
    boundary points, plus rounding of the sum.  ``grid_points`` is ignored.
    """
    if not (np.isfinite([a, b]).all() and a < b and 0.0 <= delta < np.inf):
        raise ValueError(f"need finite a < b and finite delta >= 0, got "
                         f"a={a}, b={b}, delta={delta}")
    poly = np.polynomial.polynomial
    c = np.array([(p.constant + s,) + p.coeffs for s in (-delta, delta)]).T
    e = np.frexp(max(abs(a), abs(b)))[1]
    cuts = [np.array([a, b])]
    for col in c.T:
        m, k = np.frexp(col)
        k += e * np.arange(len(k))                  # c_j 2^(e j) = m_j 2^k_j
        live = np.flatnonzero(m)
        top = live[k[live] >= k[live].max() - 52].max() if len(live) else 0
        monic = np.ldexp(m[:top] / m[top], k[:top] - k[top])
        cuts.append(np.ldexp(poly.polyroots(np.append(monic, 1.0)).real, e))
    t, dp = np.concatenate(cuts), poly.polyder(c[:, 0])
    with np.errstate(all="ignore"):     # a wild Newton step only adds a cut
        for _ in range(2):              # towards both p - delta and p + delta
            t = (t - poly.polyval(t, c) / poly.polyval(t, dp)).ravel()
            cuts.append(t)
    cuts = np.sort(np.fmax(np.fmin(np.concatenate(cuts), b), a))   # nan -> b
    below, above = poly.polyval(0.5 * (cuts[:-1] + cuts[1:]), c)
    return float(np.sum(np.diff(cuts)[(below <= 0) & (above >= 0)]))


@dataclass(frozen=True)
class BoundReport:
    measured: float
    bound_rhs: float
    ratio: float


def vinogradov_check(p: PhasePoly, a: float, b: float, delta: float,
                     grid_points=None) -> BoundReport:
    """Sublevel measure against max(|a|,|b|) (delta / max|b_k|)^{1/d}.

    The max runs over all coefficients, constant term b_0 included.  A bound
    with the max over k >= 1 only is never tighter, since max_{k>=1}|b_k| <=
    max_{k>=0}|b_k|, so its ratio is never above this one.  ValueError for
    a phase with no non-constant term.  ``grid_points`` is ignored.
    """
    if not any(p.coeffs):
        raise ValueError("need a nonconstant phase")
    measured = sublevel_measure(p, a, b, delta)
    top = float(np.max(np.abs(p.full_coeffs())))
    bound = max(abs(a), abs(b)) * (delta / top) ** (1.0 / p.degree)
    # at delta = 0 both sides are 0 and the bound holds
    ratio = measured / bound if bound > 0 else np.inf if measured else 0.0
    return BoundReport(measured=measured, bound_rhs=bound, ratio=ratio)


def vdc_bound_check(p: PhasePoly, a: float, b: float,
                    tol: float = 1e-9) -> BoundReport:
    """|int_a^b e^{ip}| against max(|a|,|b|)^{1-1/d} / (max_{k>=1}|b_k|)^{1/d}."""
    if p.degree < 1 or not any(p.coeffs):
        raise ValueError("need a nonconstant phase")
    if p.constant != 0.0:
        raise ValueError("oscillation bound expects no constant term")
    measured = abs(osc_integral(p, a, b, tol=tol))
    top = float(np.max(np.abs(p.coeffs)))
    bound = max(abs(a), abs(b)) ** (1.0 - 1.0 / p.degree) / top ** (1.0 / p.degree)
    return BoundReport(measured=measured, bound_rhs=bound,
                       ratio=measured / bound if bound > 0 else np.inf)
