"""Maximal averages along the moment curve on sampled grids (d <= 3).

All operators share one stencil, _stencil: the sum of the lattice translates
f(x - p) over a point set, by multilinear interpolation of the zero-extended
lattice, is one stencil over integer offsets, scattered densely onto its
bounding box.  The zero-extended lattice itself is a zero-padded copy of the
samples, read by plain slices.  Curve and shell averages pass the curve
points (t, t^2, ..., t^d) at midpoint nodes in t and apply the stencil
exactly, one add of a padded slice per nonzero offset (_translate_sum).
Poisson averages pass draws from the stable-mixture kernel, whose
heavy-tailed draws spread the stencil over thousands of offsets (those that
land off the grid drop out of it), and also need the exact sum of per-draw
squares behind their standard error; they apply every stencil layer as one
circular convolution by FFT (_translate_sums_fft), whose rounding sits many
orders below their Monte Carlo error.  Each maximal function is a pointwise
max of such averages over radii, dyadic shells or Poisson scales.  A general
curve (gamma_1 t, ..., gamma_d t^d) goes through curve_measure.gamma_reduce.

Two comparison checks accompany the operators.  The sandwich check measures
how far the dyadic and continuous maxima drift from the two-sided pointwise
comparison (continuous below twice dyadic, dyadic below continuous); the
split check measures the pointwise domination of the dyadic maximum by the
Poisson maximal function plus the square function of shell-minus-Poisson
differences.  Violations are reported against explicit discretization and
Monte Carlo error estimates, never hidden.
"""

from __future__ import annotations

import numbers
import warnings
from functools import lru_cache
from itertools import product
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from scipy.fft import irfftn, next_fast_len, rfftn

from .curve_measure import DyadicWindow
from .grid import GridFunction
from .norms import make_space
from .rng import family_stream
from .stable_poisson import sample_kernel_batch

# warn when the curve leaves the grid for more than this share of the nodes
ESCAPE_WARN_FRACTION = 0.10


@lru_cache(maxsize=None)
def _corner_pairs(d: int):
    """Corners {0,1}^d, the distinct deltas c_j - c_i that are zero or have a
    positive first nonzero entry, and (i, j, weight, layer) for each pair of
    corner indices with such a delta, layer being 1 + its index in deltas.

    Each unordered pair appears once, with weight 2 off the diagonal, so
    (sum_c w_c a_c)^2 = sum over pairs of weight w_i w_j a_i a_j.
    """
    corners = np.array(list(product((0, 1), repeat=d)))
    deltas, pairs = [], []
    for i, j in product(range(len(corners)), repeat=2):
        delta = tuple((corners[j] - corners[i]).tolist())
        lead = next((v for v in delta if v), 1)
        if lead > 0:
            if delta not in deltas:
                deltas.append(delta)
            pairs.append((i, j, 2.0 if i != j else 1.0, 1 + deltas.index(delta)))
    return corners, deltas, pairs


def _stencil(f: GridFunction, pts: np.ndarray, squares: bool):
    """(low, S): the stencil of the translates f(x - p) over the rows p of
    pts, dense on its bounding box of offsets [low, high + 1].

    Every translate reads the zero-extended lattice multilinearly: with pixel
    offset s = p / step, n = floor(s) and fr = s - n it is
    sum_{c in {0,1}^d} w_c(fr) f[i - n - c].  The sum over pts is therefore
    one stencil, sum_m S[0][m - low] f[i - m].  With squares the layers
    1 + q hold the stencils T_delta of the exact sum of squares,
    sum_p (sum_c w_c f[i-n-c])^2 = sum_delta sum_m T_delta[m] Q_delta[i - m]
    with Q_delta[u] = f[u] f[u - delta] for the q-th delta of _corner_pairs
    and T_delta[n + c] accumulating w_c w_{c+delta}, where delta and -delta
    share one stencil (the weight-2 pairs).  A translate with n outside
    [-N, N - 1] on an axis of N points reads only zeros and is dropped.  One
    bincount adds each entry's weights in the order of pts.
    """
    shape = np.array(f.samples.shape)
    s = np.asarray(pts, dtype=float).reshape(-1, f.d) / np.array(f.steps)
    n = np.floor(s)
    on_grid = np.all((n >= -shape) & (n <= shape - 1), axis=1)
    fr, n = (s - n)[on_grid], n[on_grid].astype(np.int64)
    corners, deltas, pairs = _corner_pairs(f.d)
    # w[p, c] = prod over axes of fr (c_a = 1) or 1 - fr (c_a = 0)
    w = np.prod(np.where(corners, fr[:, None, :], 1.0 - fr[:, None, :]), axis=2)
    low = n.min(axis=0) if len(n) else np.zeros(f.d, dtype=np.int64)
    box = (n.max(axis=0) if len(n) else low) - low + 2
    # flat index of the offset n + c in the box, per point and corner
    flat = (np.ravel_multi_index((n - low).T, box)[:, None]
            + np.ravel_multi_index(corners.T, box))
    n_layers = 1 + len(deltas) if squares else 1
    keys, weights = [flat * n_layers], [w]
    if squares:
        for i, j, mult, layer in pairs:
            keys.append(flat[:, i] * n_layers + layer)
            weights.append(mult * w[:, i] * w[:, j])
    stencil = np.bincount(np.concatenate([k.ravel() for k in keys]),
                          weights=np.concatenate([x.ravel() for x in weights]),
                          minlength=int(np.prod(box)) * n_layers)
    return low, np.moveaxis(stencil.reshape(*box, n_layers), -1, 0)


def _translate_sum(f: GridFunction, pts: np.ndarray) -> np.ndarray:
    """sum_p f(x - p) over the rows p of pts, exactly as a stencil sum.

    The samples are zero-padded once by the stencil box, and each nonzero
    offset m adds its weight times one slice of the padded copy (f[i - m]
    for every output i), in lexicographic offset order.  Every term is a
    nonnegative sample times a nonnegative weight (+0.0 off the grid), so
    the curve and shell averages keep exact identities such as the mean of
    a constant inside the box.
    """
    samples = f.samples
    low, stencil = _stencil(f, pts, squares=False)
    weights = stencil[0].ravel()
    nonzero = np.flatnonzero(weights)
    offsets = np.stack(np.unravel_index(nonzero, stencil.shape[1:]), axis=-1) + low
    # f[i - m] is padded[i - m + top], top the largest offset (or 0)
    top = np.maximum(low + stencil.shape[1:] - 1, 0)
    padded = np.pad(samples, list(zip(top, np.maximum(-low, 0))))
    starts = top - offsets
    acc = np.zeros_like(samples)
    for start, stop, weight in zip(starts.tolist(), (starts + samples.shape).tolist(),
                                   weights[nonzero].tolist()):
        acc += weight * padded[tuple(map(slice, start, stop))]
    return acc


def _translate_sums_fft(f: GridFunction, pts: np.ndarray):
    """(sum_p f(x - p), sum_p f(x - p)^2) over the rows p of pts, each
    stencil layer of _stencil applied as one circular convolution.

    Layer 0 convolves f; layer 1 + q convolves Q_delta.  The square layers'
    spectra are summed and inverted once.  On an axis of N points with
    stencil box [low, high + 1] of width B, the circular length
    L >= max(N + B - 1 + low, N - low) keeps the N wanted outputs free of
    aliasing: output i reads f[(i - m) mod L] over m in [low, high + 1],
    and i - m lies in [-(high + 1), N - 1 - low].  A negative i - m wraps to
    at least L - (high + 1) = L - (B - 1 + low) >= N, and an i - m >= N
    wraps to at most N - 1 - low - L < 0, so every read off the grid reads a
    zero pad.  Where B > L, rfftn crops box entries m >= low + L >= N,
    which read only zeros for every output.

    Both sums are sums of nonnegative terms, so both are clamped at 0:
    rounding, measured at most 3 eps len(pts) max(f)^k (k = 1 for the sum,
    2 for the squares), is the only way they go negative.
    """
    samples = f.samples
    low, stencil = _stencil(f, pts, squares=True)
    _, deltas, _ = _corner_pairs(f.d)
    size = [next_fast_len(int(max(n + b - 1 + lo, n - lo)), real=True)
            for n, b, lo in zip(samples.shape, stencil.shape[1:], low)]
    spectrum = rfftn(stencil[0], s=size)
    spectrum *= rfftn(samples, s=size)
    spectrum_sq = np.zeros_like(spectrum)
    padded = np.pad(samples, 1)     # f[u - delta] is padded[u - delta + 1]
    for layer, delta in zip(stencil[1:], deltas):
        product = rfftn(layer, s=size)
        shifted = padded[tuple(slice(1 - k, 1 - k + n)
                               for k, n in zip(delta, samples.shape))]
        product *= rfftn(samples * shifted, s=size)
        spectrum_sq += product
    # output i sits at (i - low) mod L: the stencil box starts at offset low
    window = np.ix_(*[(np.arange(n) - lo) % size_a
                      for n, lo, size_a in zip(samples.shape, low, size)])
    return tuple(np.maximum(irfftn(x, s=size)[window], 0.0)
                 for x in (spectrum, spectrum_sq))


def _average_over(f: GridFunction, t_samples: int, lo: float, hi: float,
                  mirror: bool = False) -> GridFunction:
    """Mean of f(x - curve(t)) over the midpoints t of t_samples cells of
    [lo, hi] (with mirror: of t_samples // 2 cells, and their negatives)."""
    if not isinstance(t_samples, numbers.Integral) or t_samples < 64:
        raise ValueError(f"t_samples must be an integer >= 64 quadrature "
                         f"nodes, got {t_samples!r}")
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
    acc = _translate_sum(f, pts)
    return f.with_samples(acc * (1.0 / len(ts)))


def curve_average(f: GridFunction, r: float, t_samples: int = 256) -> GridFunction:
    """Solid average (1/2r) int_{|t|<=r} f(x - curve(t)) dt by midpoint rule
    on t_samples cells of [-r, r]."""
    if not 0 < r < np.inf:
        raise ValueError(f"radius must be positive and finite, got {r}")
    return _average_over(f, t_samples, -r, r)


def shell_average(f: GridFunction, k: int, t_samples: int = 256) -> GridFunction:
    """Dyadic shell average (1/2^k) int_{2^{k-1}<|t|<=2^k} f(x - curve(t)) dt
    by midpoint rule on t_samples // 2 cells of each half of the shell."""
    try:
        hi = 2.0**k
    except OverflowError:
        raise ValueError(f"shell 2^{k} is past the double range") from None
    return _average_over(f, t_samples, 2.0 ** (k - 1), hi, mirror=True)


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
    if not len(radii):
        raise ValueError("need at least one radius")
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
    if mc_samples < 100:
        raise ValueError("need at least 100 Monte Carlo samples")
    pts, _ = sample_kernel_batch(make_space(f.d), t, mc_samples, rng)
    acc, acc_sq = _translate_sums_fft(f, pts)
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
    if not len(t_set):
        raise ValueError("need at least one scale")
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

