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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

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

    Accepts (..., d) arrays; s may broadcast against the leading axes.
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    js = np.arange(1, d + 1, dtype=float)
    return x * np.asarray(s, dtype=float)[..., None] ** js


def rho(x):
    """Homogeneous norm of one vector or a batch with shape (..., d).

    Each block is evaluated with its maximum of |x_j|^{1/j} factored out, so
    entries as small as 1e-300 or as large as 1e300 survive the inner powers
    without under/overflow and exact 1-homogeneity holds to rounding error.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] < 1:
        raise ValueError("expected at least one coordinate on the last axis")
    d = x.shape[-1]
    if d > MAX_DIMENSION:
        raise ValueError(f"dimension {d} exceeds cap {MAX_DIMENSION}")
    if not np.isfinite(x).all():
        raise ValueError("coordinates must be finite")
    total = np.zeros(x.shape[:-1], dtype=float)
    for lo, hi, level, js in _blocks(d):
        block = np.abs(x[..., lo:hi])
        scale = block ** (1.0 / js)  # |x_j|^{1/j}, the dilation-invariant size
        m = np.max(scale, axis=-1)
        safe_m = np.where(m > 0.0, m, 1.0)
        ratios = scale / safe_m[..., None]
        inner = np.sum(ratios ** float(2**level), axis=-1)
        total = total + np.where(m > 0.0, m * inner ** (1.0 / 2**level), 0.0)
    return total if total.ndim else float(total)


@dataclass(frozen=True)
class PolarPoint:
    """Radius rho(x) and the direction delta_{1/rho(x)} x on the unit sphere."""

    direction: np.ndarray
    radius: float


def polar_decompose(x) -> PolarPoint:
    x = np.asarray(x, dtype=float)
    r = rho(x)
    if not r > 0.0:
        raise ValueError("polar decomposition undefined at the origin")
    return PolarPoint(direction=dilate(x, 1.0 / r), radius=float(r))


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
    if r <= 0:
        raise ValueError("radius must be positive")
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


def _direction_weights_1d():
    # At d = 1 the unit sphere is {+1, -1}, each carrying unit surface weight.
    dirs = np.array([[1.0], [-1.0]])
    return dirs, np.array([1.0, 1.0])


def _direction_weights_2d(grid_n: int):
    """Estimate surface weights by binning unit-ball mass over directions.

    A Cartesian grid on the bounding box of {rho <= 1} is polar-decomposed;
    each cell's volume lands in the bin of its direction parameter
    (u = first coordinate of the direction, plus the sign of the second).
    Scaling by alpha = 3 turns cone mass into surface measure.
    """
    n_bins = 256
    xs = (np.arange(grid_n) + 0.5) / grid_n * 2.0 - 1.0
    h = 2.0 / grid_n
    x1, x2 = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([x1.ravel(), x2.ravel()], axis=-1)
    radii = rho(pts)
    inside = (radii <= 1.0) & (radii > 0.0)
    pts = pts[inside]
    radii = radii[inside]
    dirs = dilate(pts, 1.0 / radii)
    u = np.clip(dirs[:, 0], -1.0, 1.0)
    sign_bit = (dirs[:, 1] < 0.0).astype(int)
    bin_u = np.minimum(((u + 1.0) / 2.0 * n_bins).astype(int), n_bins - 1)
    flat = sign_bit * n_bins + bin_u
    mass = np.bincount(flat, minlength=2 * n_bins) * h * h
    alpha = 3.0
    weights = alpha * mass
    centers_u = (np.arange(n_bins) + 0.5) / n_bins * 2.0 - 1.0
    reps = []
    for s in (1.0, -1.0):
        second = s * (1.0 - np.abs(centers_u)) ** 2  # exact point on the unit sphere
        reps.append(np.stack([centers_u, second], axis=-1))
    return np.concatenate(reps, axis=0), weights


def polar_integration_check(space: ParabolicSpace,
                            test_function: Callable[[np.ndarray], np.ndarray],
                            tol: float, grid_n: int = 1024) -> PolarCheck:
    """Compare a Cartesian integral with its polar reconstruction (d <= 2).

    Left side: midpoint quadrature of f over {rho <= R} inside the box
    [-R, R] x [-R^2, R^2].  Right side: int_0^R r^{alpha-1} (surface sum) dr
    with surface weights recovered from unit-ball binning.  Both sides are
    recomputed at half resolution and the drift is reported as disc_error.
    """
    if space.d > 2:
        raise ValueError("polar_integration_check supports d <= 2")
    box_radius = POLAR_BOX_RADIUS

    def both_sides(n_grid, n_rad):
        # Cartesian side
        xs = (np.arange(n_grid) + 0.5) / n_grid * 2.0 * box_radius - box_radius
        if space.d == 1:
            pts = xs[:, None]
            cell = 2.0 * box_radius / n_grid
        else:
            ys = ((np.arange(n_grid) + 0.5) / n_grid * 2.0 - 1.0) * box_radius**2
            x1, x2 = np.meshgrid(xs, ys, indexing="ij")
            pts = np.stack([x1.ravel(), x2.ravel()], axis=-1)
            cell = (2.0 * box_radius / n_grid) * (2.0 * box_radius**2 / n_grid)
        radii = rho(pts)
        keep = radii <= box_radius
        lhs = float(np.sum(test_function(pts[keep])) * cell)

        # Polar side
        if space.d == 1:
            dirs, weights = _direction_weights_1d()
        else:
            dirs, weights = _direction_weights_2d(n_grid)
        r_mid = (np.arange(n_rad) + 0.5) / n_rad * box_radius
        dr = box_radius / n_rad
        shell = np.zeros(n_rad)
        for v, w in zip(dirs, weights):
            if w == 0.0:
                continue
            shell += w * test_function(dilate(np.broadcast_to(v, (n_rad, space.d)),
                                              r_mid))
        rhs = float(np.sum(shell * r_mid ** (space.alpha - 1) * dr))
        return lhs, rhs

    lhs, rhs = both_sides(grid_n, POLAR_RADIAL_BINS)
    lhs2, rhs2 = both_sides(grid_n // 2, POLAR_RADIAL_BINS // 2)
    disc = abs(lhs - lhs2) + abs(rhs - rhs2)
    return PolarCheck(passed=abs(lhs - rhs) <= tol + 2.0 * disc,
                      lhs=lhs, rhs=rhs, disc_error=disc)
