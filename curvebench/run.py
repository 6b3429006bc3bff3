"""curvemax benchmark: run one workload and print its metrics as JSON.

    python3 curvebench/run.py --workload {profile,grid,certify} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; curvemax is imported from its ``src``.
Each workload runs in fresh worker processes with BLAS and OpenMP pinned to
one thread.  With ``--trace 0`` one worker only sets up, then MEASURE_WORKERS
workers each run whole rounds of the workload for S / MEASURE_WORKERS
seconds; the last line of output carries cpu_s, op_gmean_ms, setup_s and
peak_rss_mb over all of them, times in CPU seconds at reference speed
(gauge.py).  With ``--trace 1`` one traced worker runs for S seconds and the
last line carries the per-layer metrics.  Results and span files go to
curvebench/out/.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("profile", "grid", "certify")
SETUP_ONLY = 1
MEASURE_WORKERS = 2       # speed differs more between processes than within one
BUDGET_S = 170.0          # whole run, all workers included
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _worker(args, deadline: float, seconds: float, *extra: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", **{k: "1" for k in PINNED})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), *extra]
    spawned = time.perf_counter()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - spawned, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    # SystemExit inside subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.seed < 0 or args.seconds < 1:
        ap.error("need --seed >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "curvemax" / "__init__.py").is_file():
        print(f"no curvemax sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + BUDGET_S
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            runs = [_worker(args, deadline, args.seconds, "--trace-file",
                            str(out_dir / f"spans-{stem}.json"))]
            setups, raw, metrics = [], {}, runs[0]["layer"]
        else:
            setup_runs = [_worker(args, deadline, 0.0, "--setup-only")
                          for _ in range(SETUP_ONLY)]
            runs = [_worker(args, deadline, args.seconds / MEASURE_WORKERS)
                    for _ in range(MEASURE_WORKERS)]
            setups = [r["setup_s"] for r in setup_runs + runs]
            raw = {k: [r[k] for r in setup_runs + runs]
                   for k in ("raw_setup_s", "setup_wall_s")}
            raw.update({k: [r[k] for r in runs] for k in ("raw_rounds", "gauge_s")})
            rounds = [w for r in runs for w in r["rounds"]]
            op_times = [t for r in runs for t in r["op_times"]]
            metrics = {
                "cpu_s": {"value": statistics.median(rounds), "unit": "s"},
                "op_gmean_ms": {"value": 1e3 * statistics.geometric_mean(op_times),
                                "unit": "ms"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in runs),
                                "unit": "MB"},
            }
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError,
            IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    result = {"correct": all(r["check_failed"] == 0 for r in runs),
              "attempted": sum(r["attempted"] for r in runs),
              "failed": sum(r["failed"] for r in runs), "metrics": metrics}
    detail = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, setups_s=setups,
                  rounds=[r["rounds"] for r in runs],
                  messages=[m for r in runs for m in r["messages"]],
                  summary=runs[0]["summary"], **raw)
    (out_dir / f"result-{stem}.json").write_text(json.dumps(detail, indent=1))
    print(f"{args.workload}: {sum(len(r['rounds']) for r in runs)} rounds, "
          f"summary {json.dumps(runs[0]['summary'])}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
