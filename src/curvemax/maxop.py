"""Maximal averages along the moment curve on sampled grids (d <= 3).

All operators share one primitive, _translate_sum: the sum of the lattice
translates f(x - p) over a point set, by multilinear interpolation with zero
fill.  Curve and shell averages pass the curve points (t, t^2, ..., t^d) at
midpoint nodes in t; Poisson averages pass draws from the stable-mixture
kernel, whose heavy tails defeat fixed stencils, and also ask for the sum of
squares behind their standard error.  Each maximal function is a pointwise max
of such averages over radii, dyadic shells or Poisson scales.  A general curve
(gamma_1 t, ..., gamma_d t^d) goes through curve_measure.gamma_reduce.

Two comparison checks accompany the operators.  The sandwich check measures
how far the dyadic and continuous maxima drift from the two-sided pointwise
comparison (continuous below twice dyadic, dyadic below continuous); the
split check measures the pointwise domination of the dyadic maximum by the
Poisson maximal function plus the square function of shell-minus-Poisson
differences.  Violations are reported against explicit discretization and
Monte Carlo error estimates, never hidden.
"""

from __future__ import annotations

import warnings
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .curve_measure import DyadicWindow
from .grid import GridFunction
from .norms import make_space
from .rng import family_stream
from .stable_poisson import sample_kernel_batch

# warn when the curve leaves the grid for more than this share of the nodes
ESCAPE_WARN_FRACTION = 0.10


def _translate_sum(f: GridFunction, pts: np.ndarray, squares: bool = False):
    """(sum_p f(x - p), sum_p f(x - p)^2 or None) over the rows p of pts."""
    acc = np.zeros_like(f.samples)
    acc_sq = np.zeros_like(f.samples) if squares else None
    for p in pts:
        shifted = f.shifted(p)
        acc += shifted
        if squares:
            acc_sq += shifted * shifted
    return acc, acc_sq


def _average_over(f: GridFunction, t_samples: int, lo: float, hi: float,
                  mirror: bool = False) -> GridFunction:
    """Mean of f(x - curve(t)) over the midpoints t of t_samples cells of
    [lo, hi] (with mirror: of t_samples // 2 cells, and their negatives)."""
    if t_samples < 64:
        raise ValueError("need at least 64 quadrature nodes")
    n = t_samples // 2 if mirror else t_samples
    ts = lo + (np.arange(n) + 0.5) * ((hi - lo) / n)
    if mirror:
        ts = np.concatenate([-ts[::-1], ts])
    pts = ts[:, None] ** np.arange(1, f.d + 1)
    half_span = [0.5 * (top - bottom) for bottom, top in zip(f.mins, f.maxs)]
    escaped = int(np.count_nonzero(np.any(np.abs(pts) > half_span, axis=1)))
    if escaped > ESCAPE_WARN_FRACTION * len(ts):
        warnings.warn(f"curve left the grid for {escaped}/{len(ts)} nodes",
                      RuntimeWarning, stacklevel=3)
    acc, _ = _translate_sum(f, pts)
    return f.with_samples(acc * (1.0 / len(ts)))


def curve_average(f: GridFunction, r: float, t_samples: int = 256) -> GridFunction:
    """Solid average (1/2r) int_{|t|<=r} f(x - curve(t)) dt by midpoint rule
    on t_samples cells of [-r, r]."""
    if r <= 0:
        raise ValueError("radius must be positive")
    return _average_over(f, t_samples, -r, r)


def shell_average(f: GridFunction, k: int, t_samples: int = 256) -> GridFunction:
    """Dyadic shell average (1/2^k) int_{2^{k-1}<|t|<=2^k} f(x - curve(t)) dt
    by midpoint rule on t_samples // 2 cells of each half of the shell."""
    return _average_over(f, t_samples, 2.0 ** (k - 1), 2.0**k, mirror=True)


def _pointwise_max(f: GridFunction, layers: Iterable[np.ndarray]) -> GridFunction:
    """Pointwise max of zero and the sample arrays in layers, in order."""
    out = np.zeros_like(f.samples)
    for layer in layers:
        np.maximum(out, layer, out=out)
    return f.with_samples(out)


def dyadic_max(f: GridFunction, window: DyadicWindow,
               t_samples: int = 256) -> GridFunction:
    """Pointwise max of shell averages over the window of scales."""
    return _pointwise_max(f, (shell_average(f, k, t_samples).samples
                              for k in window.ks()))


def continuous_max(f: GridFunction, radii: Sequence[float],
                   t_samples: int = 256) -> GridFunction:
    """Pointwise max of solid averages over the given radius set."""
    if not len(radii):
        raise ValueError("need at least one radius")
    return _pointwise_max(f, (curve_average(f, r, t_samples).samples
                              for r in radii))


class ComparisonReport(NamedTuple):
    violation: float
    error_bound: float
    passed: bool


def _discretization_scale(f: GridFunction, t_samples: int) -> float:
    """Crude first-order error estimate: sample oscillation per cell step.

    Interpolation reads at most one cell off, so errors track the largest
    neighbor difference; the t-rule adds a term of the same order.
    """
    osc = 0.0
    for axis in range(f.d):
        osc = max(osc, float(np.max(np.abs(np.diff(f.samples, axis=axis)),
                                    initial=0.0)))
    return osc + float(np.max(f.samples)) / t_samples


def _interior_mask(f: GridFunction, reach: float) -> np.ndarray:
    """Grid points whose every curve read up to |t| <= reach stays in the box.

    Axis i (curve power i+1) sees offsets in [-reach^{i+1}, reach^{i+1}] for
    odd powers but only [0, reach^{i+1}] for even ones, so even axes need no
    upper margin.
    """
    mask = np.ones(f.samples.shape, dtype=bool)
    for i in range(f.d):
        off = reach ** (i + 1)
        coord = f.axis(i)
        ok = coord >= f.mins[i] + off - 1e-12
        if (i + 1) % 2 == 1:
            ok &= coord <= f.maxs[i] - off + 1e-12
        shape = [1] * f.d
        shape[i] = -1
        mask &= ok.reshape(shape)
    return mask


def sandwich_check(f: GridFunction, window: DyadicWindow,
                   radii: Sequence[float], t_samples: int = 256) -> ComparisonReport:
    """Violation of dyadic <= continuous <= 2 * dyadic over certifiable points.

    The max runs over grid points where both operators read only sampled
    values.  Where an averaging set crosses the box boundary, zero-filled
    reads turn the comparison into one about a truncated function whose
    boundary layer genuinely breaks the first inequality, so those points
    say nothing about the operators themselves and are excluded.
    """
    reach = max(float(np.max(np.asarray(radii, dtype=float))),
                2.0 ** window.k_max)
    mask = _interior_mask(f, reach)
    if not mask.any():
        raise ValueError("no grid point keeps all reads inside the box; "
                         "enlarge the grid or shrink the window")
    m_dyad = dyadic_max(f, window, t_samples).samples[mask]
    m_cont = continuous_max(f, radii, t_samples).samples[mask]
    violation = float(np.max(np.maximum.reduce([
        m_dyad - m_cont,
        m_cont - 2.0 * m_dyad,
        np.zeros_like(m_cont),
    ])))
    err = _discretization_scale(f, t_samples)
    return ComparisonReport(violation=violation, error_bound=err,
                            passed=violation <= err)


class PoissonMax(NamedTuple):
    values: GridFunction
    rel_stderr: float


def _poisson_average(f: GridFunction, t: float, mc_samples: int,
                     rng: np.random.Generator):
    """Monte Carlo mean of f * P_t over kernel draws, and its standard error."""
    pts, _ = sample_kernel_batch(make_space(f.d), t, mc_samples, rng)
    acc, acc_sq = _translate_sum(f, pts, squares=True)
    mean = acc / mc_samples
    var = np.maximum(acc_sq / mc_samples - mean * mean, 0.0)
    return mean, np.sqrt(var / mc_samples)


def poisson_max(f: GridFunction, t_set: Sequence[float], mc_samples: int = 2000,
                seed: int = 0) -> PoissonMax:
    """sup_t f * P_t by Monte Carlo over kernel draws, one stream per scale.

    Each draw shifts the whole lattice, so the estimate at every grid point
    shares the same sample of curve displacements.  The relative standard
    error of the per-scale mean is reported at the maximizing points; a
    warning fires when it exceeds 10 percent.
    """
    if mc_samples < 100:
        raise ValueError("need at least 100 Monte Carlo samples")
    scales = [_poisson_average(f, t, mc_samples,
                               family_stream(seed, "poisson-max", idx))
              for idx, t in enumerate(sorted(t_set))]
    worst_rel = 0.0
    for mean, se in scales:
        peak = float(np.max(mean))
        if peak > 0:
            mask = mean >= 0.5 * peak
            worst_rel = max(worst_rel, float(np.max(se[mask] / np.maximum(
                mean[mask], 1e-300))))
    if worst_rel > 0.10:
        warnings.warn(f"Monte Carlo relative error {worst_rel:.1%} exceeds 10%",
                      RuntimeWarning, stacklevel=2)
    return PoissonMax(values=_pointwise_max(f, (mean for mean, _ in scales)),
                      rel_stderr=worst_rel)


def split_check(f: GridFunction, window: DyadicWindow, t_samples: int = 256,
                mc_samples: int = 2000, seed: int = 0) -> ComparisonReport:
    """Violation of: dyadic max <= Poisson max + square function of differences.

    The square function sums |shell average - Poisson average|^2 over the
    window scales; Poisson averages reuse the Monte Carlo machinery with
    3-sigma errors folded into the reported bound.  The dyadic max is taken
    over the same shell averages, in window order, as dyadic_max would.
    """
    m_dyad = np.zeros_like(f.samples)
    sup_poisson = np.zeros_like(f.samples)
    square = np.zeros_like(f.samples)
    mc_err = np.zeros_like(f.samples)
    for idx, k in enumerate(window.ks()):
        mean, se = _poisson_average(f, 2.0**k, mc_samples,
                                    family_stream(seed, "split-check", idx))
        np.maximum(sup_poisson, mean, out=sup_poisson)
        shell = shell_average(f, k, t_samples).samples
        np.maximum(m_dyad, shell, out=m_dyad)
        square += (shell - mean) ** 2
        mc_err += 3.0 * se  # 3-sigma per scale, worst-case accumulation
    rhs = sup_poisson + np.sqrt(square)
    violation = float(np.max(np.maximum(m_dyad - rhs, 0.0)))
    err = _discretization_scale(f, t_samples) + float(np.max(mc_err))
    return ComparisonReport(violation=violation, error_bound=err,
                            passed=violation <= err)


def operator_norm_probe(f_family: Sequence[GridFunction], window: DyadicWindow,
                        t_samples: int = 256) -> list:
    """Rayleigh quotients ||dyadic max f||_2 / ||f||_2 over a family."""
    out = []
    for f in f_family:
        denom = f.l2_norm()
        if denom == 0:
            raise ValueError("zero test function")
        out.append(dyadic_max(f, window, t_samples).l2_norm() / denom)
    return out
