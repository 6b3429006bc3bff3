"""A fixed reference computation that reads the host's current speed.

The benchmark's host is a shared virtual machine whose speed drifts by up
to about 2x, in phases from seconds to minutes (README "Steadiness").  The
benchmark times calls by CPU time, which leaves out the time the process
waits for a processor, but a processor that runs slower while it is held
slows CPU time too.  A ``Gauge`` therefore runs a small fixed kernel
between operations, about every ``every_s`` CPU seconds of operation time,
and scales each operation's time by ``REF_S`` over the mean of the two
readings that bracket it.  Each reading is first replaced by the median of
the ``SMOOTH`` readings around it, so that one reading disturbed by a
passing hiccup does not rescale seconds of operations.  A scaled time is
the time the call would have taken at the speed at which the kernel takes
``REF_S``.

The kernel does not import curvemax, so a change to the program cannot
move it.  It mixes what curvemax's calls spend their time on: interpreted
scalar loops, many small numpy calls, complex exponentials of polynomial
phases reduced against quadrature weights, and linear ``ndimage.shift``.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np
from scipy import ndimage

REF_S = 0.00825      # the kernel's time on the reference host (README "Machine")
SETUP_READS = 5      # readings taken right after set-up, to scale set-up time
SMOOTH = 5           # readings in the running median that scales operations

_NODES = np.linspace(-1.0, 1.0, 2048).reshape(128, 16)
_WEIGHTS = np.cos(np.linspace(0.0, 1.0, 16))
_FIELD = np.sin(np.linspace(0.0, 40.0, 128 * 128)).reshape(128, 128)


def kernel() -> float:
    """The reference computation; returns a value so no step is dead."""
    s = 0.0
    for i in range(24000):                               # interpreted loop
        s += math.sin(i * 1e-3) * 0.5
    v = np.linspace(0.0, 1.0, 32)
    for _ in range(1200):                                # small numpy calls
        v = np.cos(v) * 0.9 + 0.05
    acc = 0.0 + 0.0j
    for c in range(1, 13):                               # oscillatory panels
        phase = c * 40.0 * _NODES + 13.0 * _NODES**2 - 3.0 * _NODES**3
        acc += complex(np.sum(np.exp(1j * phase) @ _WEIGHTS))
    total = 0.0
    for k in range(6):                                   # lattice shifts
        total += float(ndimage.shift(_FIELD, (0.37 * k, -1.21), order=1,
                                     mode="constant").sum())
    return s + float(v.sum()) + abs(acc) + total


def read() -> float:
    """CPU seconds the kernel takes now."""
    t0 = time.process_time()
    kernel()
    return time.process_time() - t0


def setup_factor() -> float:
    """REF_S over the median of SETUP_READS readings, after one warm-up."""
    kernel()
    return REF_S / statistics.median(read() for _ in range(SETUP_READS))


class Gauge:
    """Readings taken between operations, and the scaling they give.

    Call ``mark()`` once before the first operation, ``after(t)`` after
    every operation (t its time), and ``mark()`` once after the last; then
    ``scale(times)`` gives every operation's time at reference speed.
    """

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.ops = 0                 # operations timed so far
        self.since = 0.0             # operation time since the last reading
        self.at: list = []           # ops done when each reading was taken
        self.readings: list = []     # seconds of each reading

    def mark(self) -> None:
        self.at.append(self.ops)
        self.readings.append(read())
        self.since = 0.0

    def after(self, seconds: float) -> None:
        self.ops += 1
        self.since += seconds
        if self.since >= self.every_s:
            self.mark()

    def scale(self, times) -> list:
        """Operation i's time times REF_S over the mean of its two bracketing
        readings, each taken as the running median of SMOOTH readings."""
        if len(times) != self.ops or not self.at or self.at[0] != 0 \
                or self.at[-1] != self.ops:
            raise ValueError("gauge readings do not bracket every operation")
        r, half = self.readings, SMOOTH // 2
        smooth = [statistics.median(r[max(0, j - half):j + half + 1])
                  for j in range(len(r))]
        out = []
        for i, t in enumerate(times):
            after = bisect.bisect_left(self.at, i + 1)    # first reading past op i
            out.append(t * REF_S / (0.5 * (smooth[after - 1] + smooth[after])))
        return out
