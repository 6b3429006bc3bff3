"""One workload process: set up, run whole rounds, report one JSON line.

Started by run.py with BLAS and OpenMP pinned to one thread.  Set-up is the
CPU time of this process until the first timed operation: interpreter
start, importing curvemax, making the inputs and one untimed call of the
first operation, which fills lazy caches such as ``_kappa``,
``_tail_constant`` and ``_blocks``.  With ``--setup-only`` the process
stops there.

Times are reported at reference speed (see gauge.py): set-up scaled by
gauge readings taken right after it, each call by the readings that
bracket it.  The unscaled CPU times, and set-up's wall time from the moment
run.py started this process (``--spawned-at``, a ``time.perf_counter``
reading; on Linux that clock is system-wide), are reported beside them.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GAUGE_EVERY_S = 0.15      # CPU seconds of operations between gauge readings


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace-file")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import curvemax
    if Path(curvemax.__file__).resolve().parent != (src / "curvemax").resolve():
        raise SystemExit(f"curvemax imported from {curvemax.__file__}, not {src}")
    import gauge
    import harness
    import workloads

    wl = workloads.BUILDERS[args.workload](args.seed)
    wl.ops[0].call()
    raw_setup_s = time.process_time()
    setup_wall_s = time.perf_counter() - args.spawned_at
    setup_s = raw_setup_s * gauge.setup_factor()
    setup = {"setup_s": setup_s, "raw_setup_s": raw_setup_s,
             "setup_wall_s": setup_wall_s}
    if args.setup_only:
        print(json.dumps(dict(setup, peak_rss_mb=_peak_rss_mb())))
        return 0

    ops, tracer = wl.ops, None
    meter = gauge.Gauge(GAUGE_EVERY_S)
    meter.mark()
    if args.trace_file:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        ops = tuple(dataclasses.replace(op, call=tracer.wrap("op." + op.kind, op.call))
                    for op in ops)

    verdicts, walls, op_times, messages = {}, [], [], []
    attempted = failed = check_failed = 0
    started = time.perf_counter()
    while True:
        res = harness.run_round(ops, verdicts, keep=wl.keep, after=meter.after)
        attempted += res.attempted
        failed += res.failed
        check_failed += res.check_failed
        messages.extend(m for m in res.messages if m not in messages)
        op_times.extend(res.times)
        walls.append(sum(res.times))
        # Whole rounds only, as many as come nearest to --seconds: a round
        # may be longer than the window, and stopping at the first round
        # past it would let a faster host double the run.  The second test
        # ends a run whose calls all raise.
        if (sum(walls) + statistics.mean(walls) / 2 >= args.seconds
                or time.perf_counter() - started >= 3 * args.seconds):
            break

    meter.mark()
    raw_walls, n = walls, len(ops)
    op_times = meter.scale(op_times)
    walls = [sum(op_times[i:i + n]) for i in range(0, len(op_times), n)]

    for m in messages[:20]:
        print(f"{args.workload}: FAILED {m}", file=sys.stderr)
    out = {**setup, "peak_rss_mb": _peak_rss_mb(), "rounds": walls,
           "raw_rounds": raw_walls, "gauge_s": meter.readings,
           "op_times": op_times, "attempted": attempted, "failed": failed,
           "check_failed": check_failed, "messages": messages[:20],
           "summary": wl.summary(res.kept) if wl.summary else {}}
    if tracer is not None:
        out["layer"] = tracer.layer_metrics(len(walls))
        tracer.write(args.trace_file, {"workload": args.workload, "seed": args.seed,
                                       "rounds": len(walls), "round_walls": walls,
                                       "layer": out["layer"]})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
