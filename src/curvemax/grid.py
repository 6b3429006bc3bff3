"""Sampled functions on uniform lattices, with simple binary serialization.

A GridFunction stores nonnegative samples on a regular grid: axis i runs from
mins[i] in uniform steps[i] increments.  Everything outside the lattice is
read as zero, which matches how the averaging operators treat compactly
supported data: reads between lattice points interpolate multilinearly in
the zero-extended lattice (scipy's "grid-constant" mode), so near the edge
they blend the last samples with zero.  Files hold a one-line JSON header
(dimension, extent, step) followed by raw little-endian float64 samples in
C order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

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
        if any(s <= 0 for s in self.steps):
            raise ValueError("steps must be positive")
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
        zero-extended lattice: the one-translate definition that
        maxop._translate_sum sums as a stencil."""
        pixels = [o / st for o, st in zip(np.atleast_1d(offset), self.steps)]
        return ndimage.shift(self.samples, shift=pixels, order=1,
                             mode="grid-constant", cval=0.0, prefilter=False)

    def with_samples(self, samples: np.ndarray) -> "GridFunction":
        return GridFunction(mins=self.mins, steps=self.steps, samples=samples)

    def save(self, path) -> None:
        header = {
            "d": self.d,
            "extent": [[lo, hi, st] for lo, hi, st
                       in zip(self.mins, self.maxs, self.steps)],
            "shape": list(self.samples.shape),
       }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode("ascii"))
            fh.write(b"\n")
            fh.write(np.ascontiguousarray(self.samples, dtype="<f8").tobytes())

    @staticmethod
    def load(path) -> "GridFunction":
        """Read a file written by save; ValueError naming the file if malformed."""
        raw = Path(path).read_bytes()
        nl = raw.find(b"\n")
        try:
            header = json.loads(raw[:max(nl, 0)].decode("ascii"))
            shape = tuple(int(n) for n in header["shape"])
            mins = tuple(e[0] for e in header["extent"])
            steps = tuple(e[2] for e in header["extent"])
        except (ValueError, TypeError, KeyError, IndexError) as exc:
            raise ValueError(f"grid file {path}: bad header ({exc})") from None
        expected = 8 * int(np.prod(shape))
        actual = len(raw) - nl - 1
        if actual != expected:
            raise ValueError(f"grid file {path}: header shape {list(shape)} "
                             f"needs {expected} sample bytes, found {actual}")
        data = np.frombuffer(raw, dtype="<f8", offset=nl + 1)
        return GridFunction(mins=mins, steps=steps,
                            samples=data.reshape(shape).copy())


def from_callable(fn, mins, maxs, shape) -> GridFunction:
    """Sample fn over the closed box [mins, maxs] with the given point counts."""
    mins = tuple(float(v) for v in np.atleast_1d(mins))
    maxs = tuple(float(v) for v in np.atleast_1d(maxs))
    shape = tuple(int(n) for n in np.atleast_1d(shape))
    steps = tuple((hi - lo) / (n - 1) for lo, hi, n in zip(mins, maxs, shape))
    axes = [lo + st * np.arange(n) for lo, st, n in zip(mins, steps, shape)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    vals = np.asarray(fn(pts), dtype=float).reshape(shape)
    return GridFunction(mins=mins, steps=steps, samples=vals)
