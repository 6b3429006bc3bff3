"""Anisotropic dilations and the block homogeneous norm.

The dilation group acts coordinate-wise, scaling the j-th coordinate by s^j.
The norm assembles the coordinates in dyadic blocks: block l covers indices
2^{l-1} < j <= 2^l and contributes

    ( sum_j |x_j|^{2^l / j} )^{1 / 2^l},

with the last (possibly partial) block running up to d.  Each inner exponent
2^l/j lies in [1, 2), so every block is a concave-power combination that is
1-homogeneous under the dilations, symmetric, and vanishes only at 0.  The
homogeneous dimension is alpha = 1 + 2 + ... + d = d(d+1)/2: Lebesgue measure
of a dilated set scales by s^alpha.

rho reduces each block along the batch, not along a short row per vector: a
one-coordinate block needs no max or sum, a block of 2 to 7 coordinates is
reduced coordinate-major in numpy's own summation order, and wider blocks
keep the last axis, so every output equals the plain block loop bit for bit.
dilate checks its scale and hands the arithmetic to _dilate, which the
kernel sampler also calls to dilate its draws in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .oscillatory import _require_tol
from .rng import STREAMS, stream

MAX_DIMENSION = 64
# box half-width R and radial bins of polar_integration_check
POLAR_BOX_RADIUS = 12.0
POLAR_RADIAL_BINS = 512


@dataclass(frozen=True)
class ParabolicSpace:
    """Ambient dimension d, number of complete dyadic blocks, and alpha."""

    d: int
    n: int
    alpha: int


def make_space(d: int) -> ParabolicSpace:
    if not 1 <= d <= MAX_DIMENSION:
        raise ValueError(f"dimension must be in [1, {MAX_DIMENSION}], got {d}")
    n = 0
    while 2**n < d:
        n += 1
    return ParabolicSpace(d=d, n=n, alpha=d * (d + 1) // 2)


@lru_cache(maxsize=None)
def _blocks(d: int):
    """Index ranges [lo, hi) with their block level l and inner exponents 2^l/j."""
    n = make_space(d).n
    out = []
    for level in range(n + 1):
        lo = 2 ** (level - 1) if level else 0
        hi = min(2**level, d)
        if lo >= hi:
            continue
        js = np.arange(lo + 1, hi + 1, dtype=float)
        out.append((lo, hi, level, js))
    return tuple(out)


def dilate(x, s):
    """Apply the anisotropic dilation: coordinate j scales by s^j.

    Accepts (..., d) arrays; s may broadcast against the leading axes and
    must be positive and finite (ValueError naming s otherwise).  For a power
    of two s = 2^m whose powers s^j leave the normal range, exponents scale
    by m j instead (ldexp), so a zero coordinate stays zero.
    """
    s = np.asarray(s, dtype=float)
    ok = (s > 0.0) & (s < math.inf)
    if not ok.all():
        raise ValueError(f"dilation s must be positive and finite, "
                         f"got {float(s[~ok].flat[0])}")
    return _dilate(np.asarray(x, dtype=float), s)


def _dilate(x, s, out=None):
    """dilate's arithmetic for a float array x and a checked s, written to
    out (x itself, for a dilation in place) or to a new array."""
    s = np.asarray(s, dtype=float)[..., None]
    js = np.arange(1, x.shape[-1] + 1)
    mant, exp = np.frexp(s)
    if np.all(mant == 0.5) and np.any(np.abs((exp - 1) * js) > 1022):
        return np.ldexp(x, (exp - 1) * js, out=out)
    return np.multiply(x, s ** js, out=out)


def rho(x):
    """Homogeneous norm of one vector or a batch with shape (..., d).

    Each block is evaluated with its maximum of |x_j|^{1/j} factored out, so
    entries as small as 1e-300 or as large as 1e300 survive the inner powers
    without under/overflow and exact 1-homogeneity holds to rounding error.

    A block's max and sum run along long rows of the batch.  A block of one
    coordinate is its own size |x_j|^{1/j}, with no max or sum to take.  A
    block of 2 to 7 coordinates is laid out coordinate-major, (w, ...), so
    each reduction is one pass of w - 1 operations over the batch; numpy
    adds fewer than 8 terms in sequence, so the sum keeps its order.  Wider
    blocks keep the coordinates on the last axis, where the rows are long
    enough and numpy's pairwise sum sets the order.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] < 1:
        raise ValueError("expected at least one coordinate on the last axis")
    d = x.shape[-1]
    if d > MAX_DIMENSION:
        raise ValueError(f"dimension {d} exceeds cap {MAX_DIMENSION}")
    if not np.isfinite(x).all():
        raise ValueError("coordinates must be finite")
    column = (slice(None),) + (None,) * (x.ndim - 1)
    total = np.zeros(x.shape[:-1], dtype=float)
    for lo, hi, level, js in _blocks(d):
        if hi - lo == 1:
            # the max is the size itself, its ratio is 1, and 1^p = 1
            total = total + (np.abs(x[..., lo:hi]) ** (1.0 / js))[..., 0]
            continue
        if hi - lo < 8:
            # |x_j|^{1/j}, the dilation-invariant size, coordinate-major
            scale = np.abs(x[..., lo:hi].T, order="C") ** (1.0 / js)[column]
            m = np.maximum.reduce(scale)
            pos = m > 0.0
            inner = np.add.reduce((scale / np.where(pos, m, 1.0))
                                  ** float(2**level))
            m, pos, inner = m.T, pos.T, inner.T
        else:
            scale = np.abs(x[..., lo:hi]) ** (1.0 / js)
            m = np.max(scale, axis=-1)
            pos = m > 0.0
            inner = np.sum((scale / np.where(pos, m, 1.0)[..., None])
                           ** float(2**level), axis=-1)
        total = total + np.where(pos, m * inner ** (1.0 / 2**level), 0.0)
    return total if total.ndim else float(total)


def _annulus_point(rng: np.random.Generator, d: int,
                   lo: float = 1.0, hi: float = 2.0) -> np.ndarray:
    """A normal direction dilated to a uniform norm in [lo, hi)."""
    v = rng.standard_normal(d)
    while not np.any(v):
        v = rng.standard_normal(d)
    return dilate(v, rng.uniform(lo, hi) / float(rho(v)))


class BallVolume(NamedTuple):
    value: float
    stderr: float


def ball_volume(space: ParabolicSpace, r: float, samples: int = 10**6,
                seed: int = 0) -> BallVolume:
    """Monte Carlo measure of {rho <= r} for d <= 4.

    Sampling box is the product of [-r^j, r^j], whose volume 2^d r^alpha times
    the hit fraction estimates the ball volume.  At d = 1 the box equals the
    ball so the estimate is exact with zero standard error.
    """
    if space.d > 4:
        raise ValueError("ball_volume supports d <= 4")
    if not 0.0 < r < math.inf:
        raise ValueError(f"radius r must be positive and finite, got {r}")
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    rng = stream(seed, STREAMS["ball-volume"])
    box = 2.0**space.d * r**space.alpha
    hits = 0
    remaining = samples
    while remaining > 0:
        chunk = min(remaining, 1 << 20)
        u = rng.uniform(-1.0, 1.0, size=(chunk, space.d))
        pts = dilate(u, r)
        hits += int(np.count_nonzero(rho(pts) <= r))
        remaining -= chunk
    frac = hits / samples
    return BallVolume(value=frac * box,
                      stderr=math.sqrt(max(frac * (1.0 - frac), 0.0) / samples) * box)


def quasi_triangle_ratio(space: ParabolicSpace, trials: int = 10**5,
                         seed: int = 0) -> float:
    """Max of rho(x+y)/(rho(x)+rho(y)) over random pairs; bounded by 2.

    Pairs are drawn with log-uniform relative scales so small-plus-large and
    comparable-size regimes are both explored.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    rng = stream(seed, STREAMS["quasi-triangle"])
    worst = 0.0
    remaining = trials
    while remaining > 0:
        chunk = min(remaining, 1 << 16)
        x = rng.standard_normal((chunk, space.d))
        y = rng.standard_normal((chunk, space.d))
        sx = 10.0 ** rng.uniform(-3.0, 3.0, size=chunk)
        sy = 10.0 ** rng.uniform(-3.0, 3.0, size=chunk)
        x = dilate(x, sx)
        y = dilate(y, sy)
        ratio = rho(x + y) / (rho(x) + rho(y))
        worst = max(worst, float(np.max(ratio)))
        remaining -= chunk
    return worst


@dataclass(frozen=True)
class PolarCheck:
    passed: bool
    lhs: float
    rhs: float
    disc_error: float


def _midpoint_radii(d: int, radius: float, n: int):
    """rho at the midpoints of an n^d-cell grid on the box prod_j
    [-radius^j, radius^j] (d <= 2), and the volume of one cell."""
    u = (np.arange(n) + 0.5) / n
    axes = (u * 2.0 * radius - radius, (u * 2.0 - 1.0) * radius**2)[:d]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    return rho(pts), math.prod(2.0 * radius**j / n for j in range(1, d + 1))


def polar_integration_check(space: ParabolicSpace,
                            profile: Callable[[np.ndarray], np.ndarray],
                            tol: float, grid_n: int = 1024) -> PolarCheck:
    """Compare the integral of f = profile(rho) with its polar form (d <= 2).

    Left side: midpoint quadrature of f over {rho <= R} inside the box
    prod_j [-R^j, R^j].  Right side: alpha |B_1| int_0^R r^{alpha-1}
    profile(r) dr, the polar formula for a radial f, with |B_1| the midpoint
    count of {0 < rho <= 1} on the same grid over [-1, 1]^d.  Both sides are
    recomputed at half resolution and the drift is reported as disc_error.
    """
    if space.d > 2:
        raise ValueError("polar_integration_check supports d <= 2")
    if grid_n < 2:
        raise ValueError(f"grid_n must be at least 2, got {grid_n}")
    _require_tol(tol)
    box_radius = POLAR_BOX_RADIUS

    def both_sides(n_grid, n_rad):
        radii, cell = _midpoint_radii(space.d, box_radius, n_grid)
        lhs = float(np.sum(profile(radii[radii <= box_radius])) * cell)
        radii, cell = _midpoint_radii(space.d, 1.0, n_grid)
        ball = np.count_nonzero((radii > 0.0) & (radii <= 1.0)) * cell
        r_mid = (np.arange(n_rad) + 0.5) / n_rad * box_radius
        dr = box_radius / n_rad
        rhs = float(space.alpha * ball
                    * np.sum(profile(r_mid) * r_mid ** (space.alpha - 1) * dr))
        return lhs, rhs

    lhs, rhs = both_sides(grid_n, POLAR_RADIAL_BINS)
    lhs2, rhs2 = both_sides(grid_n // 2, POLAR_RADIAL_BINS // 2)
    disc = abs(lhs - lhs2) + abs(rhs - rhs2)
    return PolarCheck(passed=abs(lhs - rhs) <= tol + 2.0 * disc,
                      lhs=lhs, rhs=rhs, disc_error=disc)
