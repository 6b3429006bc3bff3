"""Self-test of the benchmark's checks and failure accounting.

For every named check, one operation that carries it runs twice through
harness.run_round: as is (it must pass) and with its output corrupted so
that the check must fail (the operation must then be counted as failed,
once, with that check named).  Run from the root of a checkout:

    python3 -m pytest curvebench/selftest -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import gauge  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 0


def _scale(field, factor):
    return lambda o: dataclasses.replace(o, **{field: getattr(o, field) * factor})


def _bump_first_entry(prof):
    assert prof.window.k_min not in prof.envelope_only
    return dataclasses.replace(prof, values=(prof.values[0] + 1e-3,) + prof.values[1:])


# check name -> corruption of an output that carries the check
CORRUPTIONS = {
    "profile.g_lower_below_g":
        lambda p: dataclasses.replace(p, g_lower=1.5 * p.g_value + 0.1),
    "profile.tail_within_tol": lambda p: dataclasses.replace(p, tail_bound=0.1),
    "profile.g_is_l2_of_entries": _scale("g_value", 1.01),
    "profile.entries_vs_quadpack": _bump_first_entry,
    "profile.dyadic_invariance": lambda p: dataclasses.replace(p, g_value=p.g_value + 0.05),
    "profile.padded_direct_sum":
        lambda p: dataclasses.replace(p, g_value=p.g_value - 0.01),
    "induction.truncation": lambda d: dataclasses.replace(d, j_pivot=d.j_pivot + 1),
    "induction.tails_within_tol": lambda d: dataclasses.replace(d, term_far_tail=0.01),
    "induction.far_within_profile":
        lambda d: dataclasses.replace(d, term_far=d.term_far + 1.0),
    "grid.report_passes":
        lambda r: r._replace(violation=2.0 * r.error_bound, passed=False),
    "grid.refinement_halves": lambda r: r._replace(violation=r.violation + 1e-6),
    "grid.affine_closed_form": lambda f: f.with_samples(f.samples * (1.0 + 1e-9)),
    "certify.rho_reference": lambda r: r * (1.0 + 1e-9),
    "certify.rho_homogeneity": lambda r: r * (1.0 + 1e-9),
    "certify.rho_symmetry": lambda r: r * (1.0 + 1e-9),
    "certify.quasi_triangle": lambda r: 2.5,
    "certify.shell_sinc": lambda v: v + 1e-9,
    "certify.solid_sinc": lambda v: v + 1e-9,
    "certify.cauchy_density": lambda v: v + 1e-7,
    "certify.gauss_density": lambda v: v + 1e-7,
    "certify.vinogradov_vs_roots":
        lambda r: dataclasses.replace(r, measured=r.measured + 0.01),
    "certify.vdc_vs_clenshaw_curtis":
        lambda r: dataclasses.replace(r, measured=r.measured + 1e-6),
    "certify.sublevel_vs_roots": lambda v: v + 0.01,
    "certify.kernel_cf_3sigma": lambda out: (out[0] * 1.1, out[1]),
}

_BUILT = {name: build(SEED) for name, build in workloads.BUILDERS.items()}


def _carrier(check_name: str):
    """The first op carrying the check, with the ops its checks read."""
    for wl in _BUILT.values():
        by_key = {op.key: op for op in wl.ops}
        for op in wl.ops:
            if any(c.name == check_name for c in op.checks):
                return [by_key[d] for d in op.deps] + [op]
    raise LookupError(check_name)


def test_every_check_has_a_corruption():
    names = {c.name for wl in _BUILT.values() for op in wl.ops for c in op.checks}
    assert names == set(CORRUPTIONS)


@pytest.mark.parametrize("check_name", sorted(CORRUPTIONS))
def test_corrupted_output_counts_as_failed(check_name):
    ops = _carrier(check_name)
    target = ops[-1]
    verdicts = {}
    clean = harness.run_round(ops, verdicts)
    assert (clean.attempted, clean.failed) == (len(ops), 0), clean.messages

    corrupt = lambda op, out: CORRUPTIONS[check_name](out) if op is target else out
    bad = harness.run_round(ops, verdicts, corrupt=corrupt)
    assert (bad.attempted, bad.failed, bad.check_failed) == (len(ops), 1, 1)
    assert any(m.startswith(f"{target.key}: {check_name}:") for m in bad.messages), \
        bad.messages


def test_raising_op_fails_without_a_wrong_output():
    def boom():
        raise RuntimeError("window limit reached")

    dependent = harness.Op("b", "x", lambda: 1.0, deps=("a",))
    res = harness.run_round([harness.Op("a", "x", boom), dependent], {})
    assert (res.attempted, res.failed, res.check_failed) == (2, 2, 0)
    assert len(res.times) == 2      # the raising call is timed too


def test_gauge_scales_each_call_by_its_bracketing_readings():
    ref = gauge.REF_S
    g = gauge.Gauge(every_s=1.0)
    g.ops, g.at = 6, list(range(7))
    g.readings = [ref, ref, ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref]
    assert g.scale([1.0] * 6) == pytest.approx([1.0, 1.0, 1 / 1.5, 0.5, 0.5, 0.5])
    g.readings = [ref, ref, 5 * ref, ref, ref, ref, ref]    # a lone hiccup
    assert g.scale([1.0] * 6) == pytest.approx([1.0] * 6)
    g.at = [0, 1, 2, 3, 4, 5, 5]     # no reading after the last call
    with pytest.raises(ValueError):
        g.scale([1.0] * 6)


def test_gauge_reads_after_every_every_s_of_calls():
    seen = []
    g = gauge.Gauge(every_s=1.0)
    g.mark = lambda: (seen.append(g.ops), setattr(g, "since", 0.0))
    res = harness.run_round([harness.Op(k, "x", lambda: 1.0) for k in "abcde"], {},
                            after=g.after)
    assert g.ops == res.attempted == 5
    g.ops, g.since = 0, 0.0
    for t in (0.6, 0.6, 0.3, 0.3, 0.5):
        g.after(t)
    assert seen == [2, 5]


def test_certify_summary_survives_ops_that_all_raise():
    def boom():
        raise RuntimeError("no integral")

    wl = _BUILT["certify"]
    ops = [dataclasses.replace(op, call=boom) for op in wl.ops
           if op.kind in ("vdc_bound_check", "vinogradov_check")]
    res = harness.run_round(ops, {}, keep=wl.keep)
    assert (res.attempted, res.failed, res.check_failed) == (len(ops), len(ops), 0)
    assert len(res.times) == len(ops)
    summary = wl.summary(res.kept)
    assert summary["vdc_ratio_max"] is None and summary["corpus_size"] == 0


def test_benchmark_json_lists_the_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.BUILDERS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "cpu_s", "op_gmean_ms", "setup_s", "peak_rss_mb"]


def test_rounds_repeat_bit_for_bit():
    ops = _BUILT["certify"].ops[:8]
    first = [harness.digest(op.call()) for op in ops]
    assert first == [harness.digest(op.call()) for op in ops]
    assert harness.digest(np.zeros(2)) != harness.digest(np.zeros(3))
