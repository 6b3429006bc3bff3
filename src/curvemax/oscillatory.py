"""Oscillatory integrals of polynomial phases and sublevel estimates.

One engine, osc_integrals, integrates exp(i p) for one phase p over many
intervals, each in a group with its own tolerance.  It cuts the intervals
at the real roots of p' and p'' and bisects the pieces to at most SPAN =
4 pi of monotone phase.  On the way, a piece cut from one that spans more
than _EXPAND = 128 SPAN is first offered to integration by parts (below),
which takes it out if it certifies itself.  The remaining panels get the
Gauss-Kronrod 7/15 pair (Kronrod 1965; QUADPACK's qk15, Piessens et al.
1983) from 15 exponentials per panel, with |K15 - G7| as the panel's error.
Each exponential comes from one tangent (_cis: e^{ix} = (1 - t^2 + 2it) /
(1 + t^2), t = tan(x/2)), within 2 eps of e^{ix}: numpy's vectorised tan
is several times faster than its complex exp, and an |K15 - G7| of
rounding alone stays well below half of the panel's rounding floor.
Only groups whose summed error, panels plus expansion pieces, exceeds their
tolerance refine, halving their worst panels, so panel sizes follow the
error estimate.  A group whose tolerance is below the rounding floor of its
panels fails at once, and PANEL_CAP and a pass limit bound the rest, so a
runaway request becomes an explicit failure: osc_integral, the one-interval
case, raises QuadratureError.  sublevel_measure cuts [a, b] at the roots of
p -/+ delta.  Both take their roots from one routine, _roots, and evaluate
polynomials by one Horner rule, _horner.

Integration by parts (the asymptotic method: Iserles & Norsett, Proc. R.
Soc. A 461, 2005; Stein, Harmonic Analysis, 1993, ch. VIII).  Where p' has
no root on [a, b], f_0 = 1 and f_(m+1) = -(f_m / (i p'))' give
    int_a^b f_m e^{ip} = [f_m e^{ip} / (i p')]_a^b + int_a^b f_(m+1) e^{ip},
so int_a^b e^{ip} = sum_{m<n} [f_m e^{ip} / (i p')]_a^b + R_n with
R_n = int_a^b f_n e^{ip}.  By induction f_m = N_m / (i^m p'^{2m}) with
    N_0 = 1,  N_(m+1) = (2m + 1) N_m p'' - N_m' p',
since -(N_m / (i^(m+1) p'^(2m+1)))' = ((2m + 1) N_m p'' - N_m' p') /
(i^(m+1) p'^(2m+2)).  With lambda <= |p'| on [a, b],
    |R_n| <= int_a^b |N_n| / |p'|^{2n} <= (b - a) max|N_n| / lambda^{2n}.

The certificate is elementwise, piece by piece.  For t in [a, b] and r =
max(|a|, |b|), |q(t)| <= sum_j |q_j| r^j for any polynomial q.  So, with c
the centre and h = max(c - a, b - c), the mean value theorem gives
    lambda = |p'(c)| - gamma sum_j |p'_j| |c|^j - h sum_j |p''_j| r^j,
where the middle term bounds the rounding of p'(c): a Horner evaluation of
degree d errs by at most gamma_{2d} = 2d u / (1 - 2d u) times sum_j |q_j|
|t|^j (Higham, Accuracy and Stability of Numerical Algorithms, 2002, 5.1).
A root of p' in the piece makes lambda <= 0, so the roots from _real_roots
only propose cuts: a missed root makes a piece fail, never pass.  Further
max|N_n| <= sum_j |N_(n,j)| r^j, with the computed coefficients widened by
alpha_n M_n: M_n is the majorant of N_n (the recursion on |p'| and |p''|
with the minus made a plus), and alpha_n the rounding the recursion
accumulates against it, gamma_{d+5} per step.

Rounding of the end terms.  Q_n = sum_{m<n} M_m(r) / lambda^{2m+1} bounds
the sum S of the f_m / (i p') at either end.  To first order, the computed
e^{ip} S errs against it by at most Q_n rel, where
    rel = gamma P(r) + beta + 4 (2n - 1)(eps_1 + 2u) + (2n + 8) u:
P(r) = sum_j |b_j| r^j bounds the rounding of the phase, which moves e^{ip}
by as much; beta that of an N_m(t) against M_m(r); eps_1 = gamma
sum_j |p'_j| r^j / lambda the relative error of p'(t), raised with the
reciprocal to powers up to 2n - 1; and (2n + 8) u the exponential, the
products, the sums and the difference of the ends.  For rel <= 1/2 the
higher-order terms are at most the first-order ones, so both ends together
err by at most 4 Q_n rel; past that the piece is not certified.  So
_expand takes e^{ip} from np.exp, not from _cis: the bound counts the
exponential as one rounding, and numpy documents no error bound for its
vectorised tan.

Acceptance.  A piece's error bound is the remainder bound plus 4 Q_n rel,
times _UP = 1 + 2^-30, which covers the rounding of the bounds themselves
(sums and products of nonnegative numbers, far fewer than 2^20 roundings;
lambda is scaled down by _DOWN).  The piece is taken at the smallest n <= 4
whose bound is within its share, (b - a) / L_g of tol_g / 2 with L_g the
total length of the group's intervals, so a group's pieces use at most
half its tolerance whatever the other groups hold.  A group converges when
its panels' |K15 - G7| plus its pieces' bounds is at most tol_g.  Inf or
nan in any bound means "not certified".  A piece is offered again after
halving only while some part of it might pass: no part has a larger |p'|
than |p'(c)| plus the drift term above, a smaller |t| than the piece, or
a larger share per length, so the piece is dropped from the offers once
the remainder bound, or 4 Q rel with Q >= 1 / |p'| and rel at least its
phase and N_m terms, cannot fit the share even so.  The N_m are built
once per call, and only when some piece is offered.  _EXPAND is a cost
rule: one offer costs about as much as a few hundred panels, so a cut
piece of less phase, such as the corpora's small phases, stays with the
panels.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

MAX_DEGREE = 64
PANEL_CAP = 1 << 20
SPAN = 4.0 * np.pi      # largest phase span of a panel before any refinement
_PASSES = 64            # bisection passes allowed per stage
_CHUNK = 1 << 14        # panels per block of exponentials
_ROUNDING = 8.0 * np.finfo(float).eps   # see _rounding_floor
_ORDER = 4              # largest expansion order n tried on a piece
_U = 0.5 * np.finfo(float).eps          # unit roundoff
_UP, _DOWN = 1.0 + 2.0**-30, 1.0 - 2.0**-30   # margins for computed bounds
_ROTATE = (-1j, -1.0, 1j, 1.0)          # 1 / i^(m + 1) for m mod 4
_EXPAND = 128 * SPAN    # smallest monotone piece offered to the expansion

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
        # a scalar for a scalar argument, as numpy's polyval gives
        return _horner(self.full_coeffs(), np.asarray(t, dtype=float))[()]


def _horner(c, t):
    """c[0] + c[1] t + ... + c[-1] t^n by Horner's rule, in place.

    The products and sums are numpy polyval's, in the same order, so the
    bits are the same; the c[j] may be arrays that broadcast against t,
    which evaluates several polynomials in one pass."""
    out = np.full(np.broadcast(c[-1], t).shape, c[-1])
    for cj in c[-2::-1]:
        out *= t
        out += cj
    return out


def _roots(c: np.ndarray) -> np.ndarray:
    """Roots of c[0] + c[1] t + ... + c[n] t^n after its top zeros are
    dropped, sorted as complex numbers; none for a constant.

    numpy's polyroots without its wrappers: the same companion matrix, the
    same eigvals and the same sort, so the bits are the same."""
    c = c[:np.flatnonzero(c)[-1] + 1] if c.any() else c[:0]
    if len(c) < 2:
        return np.empty(0)
    if len(c) == 2:
        return np.array([-c[0] / c[1]])
    n = len(c) - 1
    mat = np.zeros((n, n))
    mat.reshape(-1)[n::n + 1] = 1.0
    mat[:, -1] -= c[:-1] / c[-1]
    roots = np.linalg.eigvals(mat)
    roots.sort()
    return roots


def _real_roots(coeffs: np.ndarray) -> np.ndarray:
    """Real roots of a power-basis polynomial, sorted, each once; a root
    counts as real when its imaginary part is within 1e-9 of its modulus."""
    roots = _roots(coeffs)
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


def _sin(theta: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """sin(theta) in place from one tangent: 2t / (1 + t^2), t =
    tan(theta/2); scratch, an array of theta's shape, is left holding
    1 + t^2."""
    theta *= 0.5
    np.tan(theta, out=theta)
    np.multiply(theta, theta, out=scratch)
    scratch += 1.0
    theta += theta
    theta /= scratch
    return theta


def _cis(x) -> np.ndarray:
    """e^{ix} for real x as the stacked pair (cos x, sin x), from one
    tangent per value: with t = tan(x/2), sin x = 2t / (1 + t^2) (_sin) and
    cos x = (1 - t^2) / (1 + t^2) = 2 / (1 + t^2) - 1, formed in the
    output's two rows, so no other array of x's size is held.  Within 2 eps
    of e^{ix} for |x| up to 1e12 (tests/test_oscillatory.py)."""
    out = np.empty((2,) + np.shape(x))
    c, s = out
    np.copyto(s, x)
    _sin(s, c)
    np.divide(2.0, c, out=c)
    c -= 1.0
    return out


def _kronrod(p: PhasePoly, lo: np.ndarray, hi: np.ndarray):
    """K15 value and |K15 - G7| of exp(i p) on each panel, from one set of
    15 exponentials per panel (_cis, real and imaginary parts as rows); the
    weights go in by multiply and add, node pair by node pair, so a panel's
    bits never depend on its neighbours."""
    vals = np.empty(len(lo), dtype=complex)
    errs = np.empty(len(lo), dtype=float)
    for start in range(0, len(lo), _CHUNK):
        sl = slice(start, start + _CHUNK)
        half = 0.5 * (hi[sl] - lo[sl])
        f = _cis(p(0.5 * (lo[sl] + hi[sl]) + half * _NODES))
        pair = f[:, :7] + f[:, 8:]
        k15 = _WK[7] * f[:, 7]
        for j in range(7):
            k15 += _WK[j] * pair[:, j]
        g7 = _WG[3] * f[:, 7]
        for i, j in enumerate((1, 3, 5)):
            g7 += _WG[i] * pair[:, j]
        g7 -= k15
        k15 *= half
        vals.real[sl], vals.imag[sl] = k15
        errs[sl] = np.hypot(*g7) * half
    return vals, errs


def _rounding_floor(p: PhasePoly, lo: np.ndarray, hi: np.ndarray):
    """Per panel, 8 eps (hi - lo) (1 + sum_j |b_j| r^j), r = max(|lo|, |hi|).

    The phase carries an absolute rounding error of a few eps times
    sum_j |b_j| r^j, so an |K15 - G7| this small may be rounding alone and
    halving the panel cannot be relied on to shrink it; measured estimates
    on panels too short to hold any quadrature error stay below half of it.
    """
    r = np.maximum(np.abs(lo), np.abs(hi))
    size = _horner(np.abs(p.full_coeffs()), r)
    return _ROUNDING * (hi - lo) * (1.0 + size)


def _split(bad: np.ndarray, lo: np.ndarray, hi: np.ndarray, *tags,
           mid=None):
    """Panels with the flagged ones halved at mid (by default their
    midpoints): the others first, then the left halves, then the right
    halves, each in their previous order; each tag array (a per-panel label)
    follows its panel into both halves.  With lo and hi the values of some
    function at the panel ends and mid its values at the flagged panels'
    midpoints, the same call splits those values."""
    good = ~bad
    if mid is None:
        mid = 0.5 * (lo[bad] + hi[bad])
    return [np.concatenate([lo[good], lo[bad], mid]),
            np.concatenate([hi[good], mid, hi[bad]])] + [
            np.concatenate([t[good], t[bad], t[bad]]) for t in tags]


def _gamma(k: int) -> float:
    """k u / (1 - k u): the relative error of k roundings in a row."""
    return k * _U / (1.0 - k * _U)


class _Series(NamedTuple):
    """The expansion's polynomials for one phase p, as _horner stacks (rows
    listed in order, |.| taken coefficient-wise).

    N_m is computed in floating point, M_m is its majorant (the recursion on
    |p'| and |p''| with the minus made a plus) and B_n = |N_n| + alpha_n M_n,
    where alpha_n bounds the rounding of N_n's coefficients against M_n.
    """

    bounds: np.ndarray      # p', |p'|, |p''|, B_1..B_4, M_0..M_3, |p|, |p'|,
                            # then B_1..B_4 and |p| again (see _AT)
    ends: np.ndarray        # N_0..N_3, p', p: the end terms
    gamma: float            # error of a p or p' evaluation, against |p|, |p'|
    beta: float             # error of an N_m evaluation, against M_m


# the points at which _expand evaluates the rows of _Series.bounds, as
# indices into (c, |c|, r, r_min), and the rows B_1..B_4 and |p| once more
# at r_min
_AT = np.array([0, 1] + [2] * 11 + [3] * (_ORDER + 1))
_ROWS = np.r_[:13, 3:3 + _ORDER, 11]


def _majorants(n: np.ndarray, m: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """B_1..B_4 = |N_n| + alpha_n M_n from the computed N_n, their
    majorants M_n and the rounding alpha_n of N_n against M_n: at r, a bound
    on max |N_n| over the piece."""
    return np.abs(n[1:]) + alpha[1:, None] * m[1:]


def _series(p: PhasePoly) -> _Series:
    """The _Series of phase p, by N_(m+1) = (2m + 1) N_m p'' - N_m' p' from
    N_0 = 1; built once per osc_integrals call that needs it."""
    deg = p.degree
    full = p.full_coeffs()
    d1 = full[1:] * np.arange(1.0, deg + 1)
    d2 = np.append(d1[1:] * np.arange(1.0, deg), 0.0)
    size = _ORDER * max(deg - 2, 0) + 1       # coefficients of N_4
    ramp = np.arange(1.0, size)
    n = np.zeros((_ORDER + 1, size))          # N_0..N_4
    m = np.zeros((_ORDER + 1, size))          # M_0..M_4
    n[0, 0] = m[0, 0] = 1.0
    for k in range(_ORDER):
        n[k + 1] = (2 * k + 1) * np.convolve(n[k], d2)[:size]
        m[k + 1] = (2 * k + 1) * np.convolve(m[k], np.abs(d2))[:size]
        if size > 1:
            n[k + 1] -= np.convolve(n[k, 1:] * ramp, d1)[:size]
            m[k + 1] += np.convolve(m[k, 1:] * ramp, np.abs(d1))[:size]
    # per step: sums of at most deg products, the derivative, the factor
    # 2m + 1, the difference, and the rounding of p' and p''
    alpha = _gamma(deg + 5) * np.cumsum(np.r_[0.0, 1.01 ** np.arange(1, 5)])
    bounds = np.zeros((max(size, deg + 1), 13))
    bounds[:deg, :3] = np.array([d1, np.abs(d1), np.abs(d2)]).T
    bounds[:size, 3:7] = _majorants(n, m, alpha).T
    bounds[:size, 7:11] = m[:_ORDER].T
    bounds[:deg + 1, 11] = np.abs(full)
    bounds[:deg, 12] = np.abs(d1)
    ends = np.zeros((max(size, deg + 1), _ORDER + 2))
    ends[:size, :_ORDER] = n[:_ORDER].T
    ends[:deg, _ORDER] = d1
    ends[:deg + 1, _ORDER + 1] = full
    return _Series(bounds[:, _ROWS, None], ends[:, :, None], _gamma(2 * deg),
                   alpha[_ORDER - 1] + _gamma(2 * size))


def _expand(p: PhasePoly, series: _Series, lo, hi, share):
    """Integration by parts on the pieces [lo, hi]: (taken, hope, values,
    errors), where taken marks the pieces whose certified error is within
    their share (their values and error bounds follow), and hope the pieces
    with a part that might still pass (see the module docstring)."""
    ns = np.arange(1, _ORDER + 1)[:, None]
    with np.errstate(all="ignore"):         # inf or nan certifies nothing
        c = 0.5 * (lo + hi)
        half = np.maximum(c - lo, hi - c)
        r = np.maximum(np.abs(lo), np.abs(hi))
        r_min = np.where(lo * hi > 0.0, np.minimum(np.abs(lo), np.abs(hi)), 0.0)
        at = _horner(series.bounds, np.stack([c, np.abs(c), r, r_min])[_AT])
        slope, slope_size, curve = at[:3]
        drift = _UP * (series.gamma * slope_size + half * curve)
        lam = (np.abs(slope) - drift) * _DOWN
        rem = at[3:7] * (hi - lo) / lam ** (2 * ns)
        q = np.cumsum(at[7:11] / lam ** (2 * ns - 1), axis=0)
        rel = (series.gamma * at[11] + series.beta + 4.0 * (2 * ns - 1)
               * (series.gamma * at[12] / lam + 2.0 * _U) + (2 * ns + 8) * _U)
        err = _UP * (rem + np.where(rel <= 0.5, 4.0 * q * rel, np.inf))
        fits = (lam > 0.0) & (err <= share)
        # no part of a piece has a larger lambda than this, a smaller r, or
        # a larger share; nor a smaller rel, and Q_n >= 1 / lambda
        top = np.abs(slope) + drift
        floor = series.gamma * at[17] + series.beta
        hope = (np.any(at[13:17] * (hi - lo) / top ** (2 * ns) <= share, axis=0)
                & (floor <= 0.5) & (4.0 * floor / top <= share))
        taken = fits.any(axis=0)
        if not taken.any():
            return taken, hope, None, None
        order = np.argmax(fits, axis=0)[taken]         # n - 1
        t = np.concatenate([lo[taken], hi[taken]])
        at_ends = _horner(series.ends, t)
        w = 1.0 / at_ends[_ORDER]
        w2, power = w * w, w
        terms = np.empty((_ORDER, len(t)), dtype=complex)
        for m in range(_ORDER):                 # N_m / (i^(m+1) p'^(2m+1))
            terms[m] = at_ends[m] * power * _ROTATE[m]
            power = power * w2
        sums = np.cumsum(terms, axis=0)[np.tile(order, 2), np.arange(len(t))]
        z = np.exp(1j * at_ends[_ORDER + 1]) * sums
    return (taken, hope, z[len(order):] - z[:len(order)],
            err[order, np.flatnonzero(taken)])


def osc_integrals(p: PhasePoly, lo, hi, group, tol) -> np.ndarray:
    """Per group g, the sum over its intervals [lo_i, hi_i] (group_i = g) of
    int exp(i p(t)) dt to absolute tolerance tol[g]; nan for a group that
    does not converge.  Intervals must be finite with lo < hi.

    A piece above SPAN cut from one above _EXPAND is offered to the
    expansion (_expand) while some part of it may still pass; the expansion
    takes it if its certified error is within its share, (b - a) / L_g of
    tol[g] / 2, L_g the total length of the group's intervals; a group is
    done when its panels' |K15 - G7| plus its pieces' errors is at most
    tol[g].  A group still open with no panel above both its share
    tol[g] / (2 n_g) of the tolerance and its rounding floor
    (_rounding_floor) fails at once: its tolerance is below what rounding
    lets the estimate resolve, and halving further would only spend the
    panel budget.

    Groups are numbered 0 .. len(tol) - 1.  Each panel keeps its group's
    relative order through every split, and a group's sums run through its
    panels (bincount) and its pieces (np.add.at) in that order, so its
    result does not depend on the other groups sharing the call.
    """
    tol = np.asarray(tol, dtype=float)
    n = len(tol)
    out = np.full(n, np.nan, dtype=complex)
    d1 = p.full_coeffs()[1:] * np.arange(1.0, p.degree + 1)    # p'
    d2 = d1[1:] * np.arange(1.0, p.degree)                    # p''
    crit = np.concatenate([_real_roots(d1), _real_roots(d2)])
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    grp = np.asarray(group, dtype=np.intp)
    lo, hi, grp = _cut(lo, hi, grp, np.unique(crit))
    live = np.bincount(grp, minlength=n) > 0    # neither done nor lost

    def drop(lost, *arrays):
        """The per-panel arrays without the panels of the lost groups."""
        live[lost] = False
        keep = ~lost[grp]
        return tuple(a[keep] for a in arrays)

    def over_cap(need):
        """The groups whose panels will number more than PANEL_CAP, from a
        lower bound on each panel's share of them."""
        return np.bincount(grp, need, minlength=n) > PANEL_CAP

    # Bisect until each monotone piece spans at most SPAN of phase.  A piece
    # cut from one above _EXPAND is offered to the expansion first, and taken
    # out if it passes, while it or a part of it may pass (hope).  The cap
    # counts a piece still offered as one panel and any other as the span /
    # SPAN panels it must become.  The phase at the piece ends is carried
    # along, so a pass evaluates p only at the new midpoints.
    at_lo, at_hi = p(lo), p(hi)
    span = np.abs(at_hi - at_lo)
    bad, hope = span > SPAN, span > _EXPAND
    series = None
    # the expansion pieces' errors and sums per group, added in piece order
    exp_err, exp_val = np.zeros(n), np.zeros(n, dtype=complex)
    for _ in range(_PASSES):
        if not bad.any():
            break
        idx = np.flatnonzero(bad & hope)
        if len(idx):
            if series is None:      # the pieces are still the cut intervals
                series = _series(p)
                with np.errstate(divide="ignore"):   # groups with no piece
                    share = 0.5 * tol / np.bincount(grp, hi - lo, minlength=n)
            took, hope[idx], values, errors = _expand(
                p, series, lo[idx], hi[idx],
                share[grp[idx]] * (hi[idx] - lo[idx]))
            if took.any():
                np.add.at(exp_err, grp[idx[took]], errors)
                np.add.at(exp_val, grp[idx[took]], values)
                keep = np.ones(len(lo), dtype=bool)
                keep[idx[took]] = False
                bad, hope, span, lo, hi, grp, at_lo, at_hi = (
                    a[keep] for a in (bad, hope, span, lo, hi, grp, at_lo,
                                      at_hi))
        need = np.maximum(np.ceil(span / SPAN), 1.0)
        need[hope] = 1.0
        bad, hope, lo, hi, grp, at_lo, at_hi = drop(
            over_cap(need), bad, hope, lo, hi, grp, at_lo, at_hi)
        mid = 0.5 * (lo[bad] + hi[bad])
        at_lo, at_hi = _split(bad, at_lo, at_hi, mid=p(mid))
        lo, hi, grp, hope = _split(bad, lo, hi, grp, hope, mid=mid)
        span = np.abs(at_hi - at_lo)
        bad = span > SPAN
    lo, hi, grp = drop(np.bincount(grp, bad, minlength=n) > 0, lo, hi, grp)
    vals, errs = _kronrod(p, lo, hi)
    for _ in range(_PASSES):
        count = np.bincount(grp, minlength=n)
        err = np.bincount(grp, errs, minlength=n)
        done = live & (err + exp_err <= tol)
        if done.any():
            out[done] = (np.bincount(grp, vals.real, minlength=n)[done]
                         + 1j * np.bincount(grp, vals.imag, minlength=n)[done]
                         + exp_val[done])
        lo, hi, vals, errs, grp = drop(done, lo, hi, vals, errs, grp)
        if not len(grp):
            break
        bad = errs > (tol / (2.0 * np.maximum(count, 1)))[grp]
        bad[bad] = errs[bad] > _rounding_floor(p, lo[bad], hi[bad])
        stuck = np.bincount(grp, bad, minlength=n) == 0
        bad, lo, hi, vals, errs, grp = drop(stuck | over_cap(1 + bad), bad,
                                            lo, hi, vals, errs, grp)
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
    boundary points, plus rounding of the sum.  A constant p has no roots
    and one sign.  ``grid_points`` is ignored.
    """
    if not (np.isfinite([a, b]).all() and a < b and 0.0 <= delta < np.inf):
        raise ValueError(f"need finite a < b and finite delta >= 0, got "
                         f"a={a}, b={b}, delta={delta}")
    if not p.degree:
        return float(b - a) if abs(p.constant) <= delta else 0.0
    c = np.array([(p.constant + s,) + p.coeffs for s in (-delta, delta)]).T
    e = np.frexp(max(abs(a), abs(b)))[1]
    cuts = [np.array([a, b])]
    for col in c.T:
        m, k = np.frexp(col)
        k += e * np.arange(len(k))                  # c_j 2^(e j) = m_j 2^k_j
        live = np.flatnonzero(m)
        top = live[k[live] >= k[live].max() - 52].max() if len(live) else 0
        monic = np.ldexp(m[:top] / m[top], k[:top] - k[top])
        cuts.append(np.ldexp(_roots(np.append(monic, 1.0)).real, e))
    both = c[:, :, None]                # p - delta and p + delta, as rows
    t, dp = np.concatenate(cuts), c[1:, 0] * np.arange(1.0, len(c))
    with np.errstate(all="ignore"):     # a wild Newton step only adds a cut
        for _ in range(2):              # towards both p - delta and p + delta
            t = (t - _horner(both, t) / _horner(dp, t)).ravel()
            cuts.append(t)
    cuts = np.sort(np.fmax(np.fmin(np.concatenate(cuts), b), a))   # nan -> b
    below, above = _horner(both, 0.5 * (cuts[:-1] + cuts[1:]))
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
