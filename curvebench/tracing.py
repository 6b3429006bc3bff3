"""Spans around curvemax's layer functions, for the traced run only.

``Tracer.install`` replaces each traced function wherever a curvemax module
looks it up (every module attribute bound to the original function, and the
``GridFunction.shifted`` method), so calls between layers are seen as well
as the benchmark's own calls.  Each call records a span (name, start, end,
parent) in memory; a few layers also add to counters.  Nothing is written
until the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

import numpy as np

import curvemax  # noqa: F401  (the modules below are looked up in sys.modules)
from curvemax import grid
from curvemax.oscillatory import QuadratureError


def _draws(args, kwargs, out):
    return {"stable_poisson.sample_kernel_batch.draws":
            kwargs["n"] if "n" in kwargs else args[2]}


def _points(args, kwargs, out):
    return {"grid.shifted.points": args[0].samples.size}


def _entries(args, kwargs, out):
    return {"multiplier.entries": len(out.values),
            "multiplier.envelope_entries": len(out.envelope_only)}


# span name -> (defining module, attribute, counter read from each call)
LAYERS = {
    "oscillatory.osc_integral": ("curvemax.oscillatory", "osc_integral", None),
    "oscillatory.sublevel_measure": ("curvemax.oscillatory", "sublevel_measure", None),
    "curve_measure.sigma_hat": ("curvemax.curve_measure", "sigma_hat", None),
    "curve_measure.sigma_hat_dyadic": ("curvemax.curve_measure", "sigma_hat_dyadic", None),
    "curve_measure.sigma_hat_upper_bound": ("curvemax.curve_measure",
                                            "sigma_hat_upper_bound", None),
    "multiplier.g_profile": ("curvemax.multiplier", "g_profile", _entries),
    "multiplier.induction_diagnostics": ("curvemax.multiplier",
                                         "induction_diagnostics", None),
    "norms.rho": ("curvemax.norms", "rho", None),
    "stable_poisson.sample_kernel_batch": ("curvemax.stable_poisson",
                                           "sample_kernel_batch", _draws),
    "maxop.shell_average": ("curvemax.maxop", "shell_average", None),
    "maxop.curve_average": ("curvemax.maxop", "curve_average", None),
    "maxop.sandwich_check": ("curvemax.maxop", "sandwich_check", None),
    "maxop.split_check": ("curvemax.maxop", "split_check", None),
}

# (metric, unit): "calls", "busy_s", "self_s" and "p50_us" read the spans of
# the named layer, anything else a counter; all but p50_us and the share are
# per round.  BENCHMARK.json lists the same metrics in the same order.
PER_LAYER = (
    ("oscillatory.osc_integral.calls", "count"),
    ("oscillatory.osc_integral.busy_s", "s"),
    ("oscillatory.osc_integral.p50_us", "us"),
    ("oscillatory.quadrature_errors", "count"),
    ("oscillatory.sublevel_measure.busy_s", "s"),
    ("curve_measure.sigma_hat.busy_s", "s"),
    ("curve_measure.sigma_hat_dyadic.calls", "count"),
    ("curve_measure.sigma_hat_dyadic.busy_s", "s"),
    ("curve_measure.sigma_hat_upper_bound.calls", "count"),
    ("curve_measure.sigma_hat_upper_bound.busy_s", "s"),
    ("multiplier.g_profile.calls", "count"),
    ("multiplier.g_profile.busy_s", "s"),
    ("multiplier.g_profile.self_s", "s"),
    ("multiplier.induction_diagnostics.busy_s", "s"),
    ("multiplier.entries", "count"),
    ("multiplier.envelope_share", "ratio"),
    ("norms.rho.calls", "count"),
    ("norms.rho.busy_s", "s"),
    ("stable_poisson.sample_kernel_batch.draws", "count"),
    ("stable_poisson.sample_kernel_batch.busy_s", "s"),
    ("grid.shifted.calls", "count"),
    ("grid.shifted.busy_s", "s"),
    ("grid.shifted.points", "count"),
    ("maxop.shell_average.busy_s", "s"),
    ("maxop.curve_average.busy_s", "s"),
    ("maxop.sandwich_check.self_s", "s"),
    ("maxop.split_check.self_s", "s"),
)


class Tracer:
    def __init__(self):
        self.names: list = []
        self.name_of: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self.counters: dict = {}
        self._stack: list = []

    def wrap(self, name: str, fn, count=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            except QuadratureError:
                if name == "oscillatory.osc_integral":
                    self._add({"oscillatory.quadrature_errors": 1})
                raise
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                self._add(count(args, kwargs, out))
            return out
        return traced

    def _add(self, counts: dict) -> None:
        for key, value in counts.items():
            self.counters[key] = self.counters.get(key, 0) + value

    def install(self) -> None:
        """Replace every lookup site of the traced functions in curvemax."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "curvemax" or k.startswith("curvemax.")]
        for name, (module, attr, count) in LAYERS.items():
            original = getattr(sys.modules[module], attr, None)
            if original is None:
                continue        # a layer function that no longer exists reads 0
            traced = self.wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
        grid.GridFunction.shifted = self.wrap("grid.shifted", grid.GridFunction.shifted,
                                              _points)

    def layer_metrics(self, rounds: int) -> dict:
        name_of = np.asarray(self.name_of, dtype=int)
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=int)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        spans = {}
        for nid, name in enumerate(self.names):
            mine = name_of == nid
            spans[name] = {
                "calls": int(np.count_nonzero(mine)) / rounds,
                "busy_s": float(np.sum(dur[mine])) / rounds,
                "self_s": float(np.sum(self_time[mine])) / rounds,
                "p50_us": (statistics.median(dur[mine].tolist()) * 1e6
                           if mine.any() else 0.0),
            }
        entries = self.counters.get("multiplier.entries", 0)
        out = {}
        for metric, unit in PER_LAYER:
            layer, _, stat = metric.rpartition(".")
            if metric == "multiplier.envelope_share":
                value = (self.counters.get("multiplier.envelope_entries", 0) / entries
                         if entries else 0.0)
            elif stat in spans.get(layer, {}):
                value = spans[layer][stat]
            else:
                value = self.counters.get(metric, 0) / rounds
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path, extra: dict) -> None:
        """Spans as parallel arrays, times in ns from the first span."""
        t0 = self.start[0] if self.start else 0.0
        doc = dict(extra, names=self.names, spans={
            "name": self.name_of,
            "start_ns": [round((t - t0) * 1e9) for t in self.start],
            "end_ns": [round((t - t0) * 1e9) for t in self.end],
            "parent": self.parent,
        })
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
