"""Command line front end for experiments and the acceptance suite.

Every subcommand writes a machine-readable artifact (JSON or CSV) to stdout
or to --out, plus a human summary on stderr.  Identical flags and seed give
byte-identical artifacts apart from the timestamp field.  Reported numbers
always travel with a tolerance or standard-error column, and the header
records how per-task random streams derive from the master seed.
Subcommands named after a criterion run that criterion's experiment from
``acceptance``; their flags override parameters of its preset.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from .acceptance import (criterion_closed_forms, criterion_subordination,
                         jsonable, kernel_certification, maxop_reductions,
                         norm_axioms, oscillatory_corpus, preset, run_all)
from .curve_measure import (dyadic_phase_size, sigma_decay_envelope,
                            sigma_hat_dyadic, sigma_hat_upper_bound)
from .multiplier import log_growth_experiment, sup_search
from .norms import ball_volume, make_space, polar_integration_check, rho
from .oscillatory import PANEL_CAP, QuadratureError
from .rng import SEED_DERIVATION


class ConfigError(Exception):
    pass


# -- config and flag resolution ----------------------------------------------

def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config file {path!r}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


_KINDS = {bool: "true or false", int: "an integer", float: "a number"}


def _convert(val, cast, what: str):
    """val as a bool, int or float, refusing what the bare cast would coerce.

    bool("no") is True, int(2.7) is 2 and float(True) is 1.0; here only a
    boolean is a boolean, a boolean is no number, and an integer must be
    integral.  Strings (flags, the environment) parse as usual.
    """
    try:
        if isinstance(val, bool) != (cast is bool):
            raise ValueError
        out = cast(val)
        if cast is int and isinstance(val, float) and out != val:
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{what} must be {_KINDS[cast]}, got {val!r}")
    return out


def _resolve(ns, cfg, key, default=None, cast=None):
    """Flag beats config file beats default."""
    val = getattr(ns, key, None)
    if val is None:
        val = cfg.get(key)
    if val is None:
        return default
    return val if cast is None else _convert(val, cast, key)


def _resolve_seed(ns, cfg):
    seed = _resolve(ns, cfg, "seed", cast=int)
    if seed is None:
        seed = _convert(os.environ.get("PARABOLIC_SEED", 0), int, "seed")
    if not 0 <= seed < 2**64:
        raise ConfigError("seed must be a 64-bit unsigned integer")
    return seed


def _parse_list(text, cast) -> tuple:
    items = text if isinstance(text, (list, tuple)) else str(text).split(",")
    return tuple(_convert(t, cast, f"each entry of {text!r}") for t in items)


def _parse_float_list(text) -> tuple:
    vals = _parse_list(text, float)
    if not all(map(math.isfinite, vals)):
        raise ConfigError(f"expected finite numbers, got {text!r}")
    return vals


def _check_dim(d: int) -> int:
    if not 1 <= d <= 64:
        raise ConfigError(f"dimension {d} outside [1, 64]")
    return d


def _check_tol(tol: float, upper: float = math.inf) -> float:
    if not 0 < tol < upper:
        raise ConfigError(f"tolerance must lie in (0, {upper}), got {tol}")
    return tol


# -- emission ------------------------------------------------------------------

def _csv_cell(v) -> str:
    v = jsonable(v)
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, dict)):
        return json.dumps(v, sort_keys=True, separators=(",", ":"))
    return str(v)


def _emit(ns, command: str, seed: int, rows, meta: dict, failures) -> None:
    fmt = ns.resolved_format
    stamp = datetime.now(timezone.utc).isoformat()
    if fmt == "json":
        doc = {"command": command, "seed": seed,
               "seed_derivation": SEED_DERIVATION,
               "passed": not failures, "failures": list(failures),
               "meta": jsonable(meta), "rows": jsonable(rows),
               "timestamp": stamp}
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        buf.write(f"# command={command}\n")
        buf.write(f"# seed={seed}\n")
        buf.write(f"# seed-derivation={SEED_DERIVATION}\n")
        for key in sorted(meta):
            buf.write(f"# {key}={_csv_cell(meta[key])}\n")
        for msg in failures:
            buf.write(f"# fail={msg}\n")
        buf.write(f"# timestamp={stamp}\n")
        if rows:
            keys = list(rows[0].keys())
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(keys)
            for row in rows:
                writer.writerow([_csv_cell(row.get(k)) for k in keys])
        text = buf.getvalue()
    if ns.out:
        with open(ns.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt_num(v) -> str:
    if isinstance(v, (float, np.floating)):
        return f"{v:.6g}"
    return str(v)


def _summary(command: str, rows, failures) -> None:
    for row in rows:
        status = "ok " if row.get("passed", True) else "FAIL"
        label = str(row.get("check") or row.get("name") or row.get("case")
                    or row.get("d") or row.get("k", ""))
        shown = [k for k in row
                 if k not in ("check", "name", "case", "passed", "details",
                              "argmax") and row[k] is not None][:6]
        frag = " ".join(f"{k}={_fmt_num(row[k])}" for k in shown)
        print(f"  [{status}] {label} {frag}", file=sys.stderr)
    print(f"{command}: {'PASS' if not failures else 'FAIL'}", file=sys.stderr)
    for msg in failures:
        print(f"  violated: {msg}", file=sys.stderr)


# -- subcommands -----------------------------------------------------------------

def _criterion_rows(results, label: str = "check"):
    """One row per criterion result carrying the criterion's own details."""
    rows, failures = [], []
    for res in results:
        rows.append({"criterion": res.number, label: res.name,
                     "passed": res.passed, "details": res.details})
        marker = "PASS" if res.passed else "FAIL"
        print(f"criterion {res.number} {res.name}: {marker} "
              f"({res.elapsed:.1f} s)", file=sys.stderr)
        if not res.passed:
            failures.append(f"criterion {res.number} ({res.name}) failed; "
                            "see its details row")
    return rows, failures


def cmd_norm_eval(ns, cfg, seed, quick):
    point = _resolve(ns, cfg, "point")
    d = _resolve(ns, cfg, "d", cast=int)
    vals = None
    if point is not None:
        vals = np.array(_parse_float_list(point))
        if d is not None and d != len(vals):
            raise ConfigError(f"--d {d} disagrees with --point length {len(vals)}")
        d = len(vals)
    d = _check_dim(2 if d is None else d)
    params = preset("norm-axioms", quick)
    params["dims"] = (d,)
    rows = []
    if vals is not None:
        rows.append({"check": "point-norm", "value": float(rho(vals)),
                     "rel_tol": 1e-15, "passed": True})
    crit_rows, failures = _criterion_rows([norm_axioms(seed, **params)])
    rows += crit_rows

    if d <= 2:
        space = make_space(d)
        pol = polar_integration_check(space, lambda p: np.exp(-rho(p)),
                                      tol=5e-2, grid_n=512 if quick else 1024)
        rows.append({"check": "polar-reconstruction", "value": pol.lhs,
                     "reference": pol.rhs, "disc_error": pol.disc_error,
                     "passed": pol.passed})
        if not pol.passed:
            failures.append("polar reconstruction drifted beyond its "
                            f"discretization error at d={d}")
        bv = ball_volume(space, 1.0, samples=10**5 if quick else 10**6,
                         seed=seed)
        exact = 2.0 if d == 1 else 4.0 / 3.0
        ok = abs(bv.value - exact) <= max(4.0 * bv.stderr, 1e-12)
        rows.append({"check": "unit-ball-volume", "value": bv.value,
                     "stderr": bv.stderr, "reference": exact, "passed": ok})
        if not ok:
            failures.append(f"unit ball volume {bv.value:.6f} further than "
                            f"4 sigma from {exact:.6f} at d={d}")
    return rows, {"d": d, "trials": params["trials"]}, failures


def cmd_osc_corpus(ns, cfg, seed, quick):
    params = preset("oscillatory-bounds", quick)
    d_list = _resolve(ns, cfg, "d_list")
    if d_list is not None:
        params["dims"] = tuple(map(_check_dim, _parse_list(d_list, int)))
    params["count"] = _resolve(ns, cfg, "count", default=params["count"],
                               cast=int)
    if params["count"] < 1:
        raise ConfigError("count must be >= 1")
    rows, failures = _criterion_rows([oscillatory_corpus(seed, **params)])
    return rows, {"count": params["count"]}, failures


def cmd_sigma_hat(ns, cfg, seed, quick):
    xi_text = _resolve(ns, cfg, "xi")
    if xi_text is None:
        raise ConfigError("sigma-hat requires --xi (comma-separated floats)")
    xi = np.array(_parse_float_list(xi_text))
    _check_dim(len(xi))
    if not np.any(xi):
        raise ConfigError("--xi must be nonzero")
    k_lo = _resolve(ns, cfg, "k_lo", default=-6, cast=int)
    k_hi = _resolve(ns, cfg, "k_hi", default=6, cast=int)
    if k_lo > k_hi:
        raise ConfigError(f"k range [{k_lo}, {k_hi}] is empty")
    tol = _check_tol(_resolve(ns, cfg, "tol", default=1e-10, cast=float))
    rows, failures = [], []
    for k in range(k_lo, k_hi + 1):
        bound = sigma_hat_upper_bound(xi, k)
        env = sigma_decay_envelope(xi, k)
        val = None
        if 8.0 * dyadic_phase_size(xi, k) <= PANEL_CAP:
            try:
                val = sigma_hat_dyadic(xi, k, tol=tol)
            except QuadratureError:
                val = None
        row = {"k": k, "quad_tol": tol, "certified_bound": bound,
               "envelope_scale": env}
        if val is None:
            row.update({"abs": None, "real": None, "imag": None,
                        "passed": True})
        else:
            ok = abs(val) <= min(1.0, bound) + tol + 1e-12
            row.update({"abs": abs(val), "real": val.real, "imag": val.imag,
                        "passed": ok})
            if not ok:
                failures.append(f"certified transform bound violated at k={k}: "
                                f"|value| {abs(val):.6e} > {bound:.6e}")
        rows.append(row)
    return rows, {"xi": list(map(float, xi))}, failures


def cmd_kernel_verify(ns, cfg, seed, quick):
    d = _check_dim(_resolve(ns, cfg, "d", default=2, cast=int))
    params = preset("kernel-certification", quick)
    samples = _resolve(ns, cfg, "samples", default=params["cf_samples"],
                       cast=int)
    if samples < 1000:
        raise ConfigError("samples must be >= 1000")
    params.update(gram_dims=(d,), cf_dims=(d,), cf_samples=samples)
    rows, failures = _criterion_rows([
        criterion_closed_forms(seed, quick),
        kernel_certification(seed, **params),
        criterion_subordination(seed, quick)])
    return rows, {"d": d, "samples": samples}, failures


def _search_settings(ns, cfg, quick):
    """Budget and profile tolerance of the sup searches, as in criterion 7."""
    budget = _resolve(ns, cfg, "budget",
                      default=preset("log-growth", quick)["budget"], cast=int)
    if budget < 4:
        raise ConfigError("budget must be >= 4")
    # g_profile accepts tolerances in (0, 1)
    tol = _check_tol(_resolve(ns, cfg, "tol", default=2e-3, cast=float), 1.0)
    return budget, tol


def cmd_multiplier_sup(ns, cfg, seed, quick):
    d = _check_dim(_resolve(ns, cfg, "d", default=2, cast=int))
    budget, tol = _search_settings(ns, cfg, quick)
    row = sup_search(d, budget=budget, seed=seed, tol=tol)
    ok = math.isfinite(row.sup_estimate) and row.g_lower <= row.sup_estimate
    rows = [{"d": row.d, "sup_estimate": row.sup_estimate,
             "g_lower": row.g_lower, "tail_bound": row.tail_bound,
             "profile_tol": tol, "evals": row.evals, "seed": row.seed,
             "argmax": list(row.argmax), "passed": ok}]
    failures = [] if ok else [f"sup estimate not finite at d={d}"]
    return rows, {"budget": budget}, failures


def cmd_log_growth(ns, cfg, seed, quick):
    d_list = _resolve(ns, cfg, "d_list")
    d_list = (preset("log-growth", quick)["d_list"] if d_list is None
              else tuple(map(_check_dim, _parse_list(d_list, int))))
    budget, tol = _search_settings(ns, cfg, quick)
    table = log_growth_experiment(d_list, budget=budget, seed=seed, tol=tol)
    rows = [{"d": row.d, "sup_estimate": row.sup_estimate,
             "tail_bound": row.tail_bound, "evals": row.evals,
             "seed": row.seed, "argmax": list(row.argmax),
             "g_lower": row.g_lower} for row in table.rows]
    sups = [r["sup_estimate"] for r in rows]
    failures = []
    if any(b < a for a, b in zip(sups[:-1], sups[1:])):
        failures.append("sup estimates not monotone under padding embedding")
    if not all(map(math.isfinite, sups)):
        failures.append("non-finite sup estimate")
    meta = {"budget": budget, "profile_tol": tol,
            "fit_slope": table.fit_slope, "fit_intercept": table.fit_intercept}
    return rows, meta, failures


def cmd_maxop_check(ns, cfg, seed, quick):
    params = preset("maxop-reductions", quick)
    d = _resolve(ns, cfg, "d", default=1, cast=int)
    if d not in (1, 2):
        raise ConfigError("maxop-check supports --d 1 or 2")
    mc = _resolve(ns, cfg, "mc", default=params["mc"], cast=int)
    if mc < 100:
        raise ConfigError("mc must be >= 100")
    params.update(dims=(d,), mc=mc)
    rows, failures = _criterion_rows([maxop_reductions(seed, **params)])
    return rows, {"d": d, "mc_samples": mc}, failures


def cmd_accept(ns, cfg, seed, quick):
    rows, failures = _criterion_rows(run_all(seed=seed, quick=quick),
                                     label="name")
    return rows, {"quick": quick}, failures


_HANDLERS = {
    "norm-eval": cmd_norm_eval,
    "osc-corpus": cmd_osc_corpus,
    "sigma-hat": cmd_sigma_hat,
    "kernel-verify": cmd_kernel_verify,
    "multiplier-sup": cmd_multiplier_sup,
    "log-growth": cmd_log_growth,
    "maxop-check": cmd_maxop_check,
    "accept": cmd_accept,
}

# log-growth defaults to CSV (plot-ready table); everything else to JSON.
_DEFAULT_FORMAT = {name: "json" for name in _HANDLERS}
_DEFAULT_FORMAT["log-growth"] = "csv"


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--d", type=int, default=None)
    common.add_argument("--d-list", dest="d_list", default=None)
    common.add_argument("--budget", type=int, default=None)
    common.add_argument("--tol", type=float, default=None)
    common.add_argument("--seed", default=None)
    common.add_argument("--out", default=None)
    common.add_argument("--format", choices=("csv", "json"), default=None)
    common.add_argument("--quick", action="store_true", default=None)
    common.add_argument("--config", default=None)

    parser = argparse.ArgumentParser(
        prog="curvemax",
        description="Experiments and acceptance checks for the anisotropic "
                    "curve maximal-function toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)
    extras = {
        "norm-eval": [("--point", {})],
        "osc-corpus": [("--count", {"type": int})],
        "sigma-hat": [("--xi", {}), ("--k-lo", {"type": int, "dest": "k_lo"}),
                      ("--k-hi", {"type": int, "dest": "k_hi"})],
        "kernel-verify": [("--samples", {"type": int})],
        "multiplier-sup": [],
        "log-growth": [],
        "maxop-check": [("--mc", {"type": int})],
        "accept": [],
    }
    for name in _HANDLERS:
        p = sub.add_parser(name, parents=[common])
        for flag, kwargs in extras[name]:
            p.add_argument(flag, default=None, **kwargs)
    return parser


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(ns.config)
        seed = _resolve_seed(ns, cfg)
        quick = _resolve(ns, cfg, "quick", default=False, cast=bool)
        ns.resolved_format = (ns.format or cfg.get("format")
                              or _DEFAULT_FORMAT[ns.command])
        if ns.resolved_format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, "
                              f"got {ns.resolved_format!r}")
        rows, meta, failures = _HANDLERS[ns.command](ns, cfg, seed, quick)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    _emit(ns, ns.command, seed, rows, meta, failures)
    _summary(ns.command, rows, failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
