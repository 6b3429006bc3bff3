"""Sampled functions on uniform lattices.

A GridFunction stores nonnegative samples on a regular grid: axis i runs from
mins[i] in uniform steps[i] increments.  Everything outside the lattice is
read as zero, which matches how the averaging operators treat compactly
supported data: reads between lattice points interpolate multilinearly in
the zero-extended lattice (scipy's "grid-constant" mode), so near the edge
they blend the last samples with zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage


@dataclass(frozen=True)
class GridFunction:
    mins: tuple
    steps: tuple
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != len(self.mins) or samples.ndim != len(self.steps):
            raise ValueError("axis count mismatch between extent and samples")
        if not 1 <= samples.ndim <= 3:
            raise ValueError("grids support 1 <= d <= 3")
        if not all(np.isfinite(self.mins)):
            raise ValueError("mins must be finite")
        if not all(0.0 < s < np.inf for s in self.steps):
            raise ValueError("steps must be positive and finite")
        if not np.all(np.isfinite(samples)) or np.any(samples < 0):
            raise ValueError("samples must be finite and nonnegative")
        object.__setattr__(self, "mins", tuple(float(v) for v in self.mins))
        object.__setattr__(self, "steps", tuple(float(v) for v in self.steps))
        object.__setattr__(self, "samples", samples)

    @property
    def d(self) -> int:
        return self.samples.ndim

    @property
    def maxs(self) -> tuple:
        return tuple(lo + st * (n - 1)
                     for lo, st, n in zip(self.mins, self.steps, self.samples.shape))

    def axis(self, i: int) -> np.ndarray:
        return self.mins[i] + self.steps[i] * np.arange(self.samples.shape[i])

    def shifted(self, offset) -> np.ndarray:
        """Samples of x -> f(x - offset) by multilinear interpolation of the
        zero-extended lattice: the one-translate definition whose sums
        maxop._stencil turns into a stencil, which the curve and shell
        averages apply exactly and the Poisson averages by FFT."""
        pixels = [o / st for o, st in zip(np.atleast_1d(offset), self.steps)]
        return ndimage.shift(self.samples, shift=pixels, order=1,
                             mode="grid-constant", cval=0.0, prefilter=False)

    def with_samples(self, samples: np.ndarray) -> "GridFunction":
        return GridFunction(mins=self.mins, steps=self.steps, samples=samples)


def from_callable(fn, mins, maxs, shape) -> GridFunction:
    """Sample fn over the closed box [mins, maxs] with the given point counts,
    at least 2 per axis."""
    mins = tuple(float(v) for v in np.atleast_1d(mins))
    maxs = tuple(float(v) for v in np.atleast_1d(maxs))
    shape = tuple(int(n) for n in np.atleast_1d(shape))
    if any(n < 2 for n in shape):
        raise ValueError(f"shape needs at least 2 points per axis, got {shape}")
    steps = tuple((hi - lo) / (n - 1) for lo, hi, n in zip(mins, maxs, shape))
    axes = [lo + st * np.arange(n) for lo, st, n in zip(mins, steps, shape)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    vals = np.asarray(fn(pts), dtype=float).reshape(shape)
    return GridFunction(mins=mins, steps=steps, samples=vals)
