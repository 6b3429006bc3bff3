"""Command line front end for experiments and the acceptance suite.

Every subcommand writes a machine-readable artifact (JSON or CSV) to stdout
or to --out, plus a human summary on stderr.  Identical flags and seed give
byte-identical artifacts apart from the timestamp field.  Reported numbers
always travel with a tolerance or standard-error column, and the header
records how per-task random streams derive from the master seed.
Every subcommand but ``sigma-hat``, which evaluates one given input, runs
its criterion through ``acceptance.run`` and takes the criterion's verdict;
its flags override parameters of the criterion's quick or full preset.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from .acceptance import jsonable, preset, run, run_all
from .curve_measure import (_integer_scales, sigma_hat_dyadics,
                            sigma_hat_upper_bound)
from .norms import MAX_DIMENSION, rho
from .rng import SEED_DERIVATION

# The widest k range of sigma-hat.  2^k xi_1 is a nonzero finite double only
# while 2^-1075 < 2^k |xi_1| < 2^1024, so for a normal xi_1 (2^-1022 <=
# |xi_1| < 2^1024) only if -2099 < k < 2046: 4144 scales.  Higher coordinates
# 2^{kj} xi_j leave double range sooner.
MAX_SCALES = 4144


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


def _resolve(ns, cfg, key, default=None):
    """Flag beats config file beats default, cast to the setting's type."""
    val = getattr(ns, key)
    if val is None:
        val = cfg.get(key)
    if val is None:
        return default
    cast = dict(_COMMANDS[ns.command][2], seed=int, quick=bool,
                format=None)[key]
    return val if cast is None else _convert(val, cast, key)


def _resolve_seed(ns, cfg):
    seed = _resolve(ns, cfg, "seed")
    if seed is None:
        seed = _convert(os.environ.get("PARABOLIC_SEED", 0), int, "seed")
    if not 0 <= seed < 2**64:
        raise ConfigError("seed must be a 64-bit unsigned integer")
    return seed


def _parse_list(text, cast) -> tuple:
    items = text if isinstance(text, (list, tuple)) else str(text).split(",")
    if not items:
        raise ConfigError(f"expected at least one entry, got {text!r}")
    return tuple(_convert(t, cast, f"each entry of {text!r}") for t in items)


def _parse_float_list(text) -> tuple:
    vals = _parse_list(text, float)
    if not all(map(math.isfinite, vals)):
        raise ConfigError(f"expected finite numbers, got {text!r}")
    return vals


def _check_dim(d: int) -> int:
    if not 1 <= d <= MAX_DIMENSION:
        raise ConfigError(f"dimension {d} outside [1, {MAX_DIMENSION}]")
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
    d = _resolve(ns, cfg, "d")
    vals = None
    if point is not None:
        vals = np.array(_parse_float_list(point))
        if d is not None and d != len(vals):
            raise ConfigError(f"--d {d} disagrees with --point length {len(vals)}")
        d = len(vals)
    d = _check_dim(2 if d is None else d)
    rows = []
    if vals is not None:
        rows.append({"check": "point-norm", "value": float(rho(vals)),
                     "rel_tol": 1e-15, "passed": True})
    crit = run("norm-axioms", seed, quick, dims=(d,))
    crit_rows, failures = _criterion_rows([crit])
    rows += crit_rows
    return rows, {"d": d, "trials": crit.details["trials_per_dim"]}, failures


def cmd_osc_corpus(ns, cfg, seed, quick):
    overrides = {}
    d_list = _resolve(ns, cfg, "d_list")
    if d_list is not None:
        overrides["dims"] = tuple(map(_check_dim, _parse_list(d_list, int)))
    count = _resolve(ns, cfg, "count",
                     default=preset("oscillatory-bounds", quick)["count"])
    if count < 1:
        raise ConfigError("count must be >= 1")
    rows, failures = _criterion_rows([
        run("oscillatory-bounds", seed, quick, count=count, **overrides)])
    return rows, {"count": count}, failures


def cmd_sigma_hat(ns, cfg, seed, quick):
    xi_text = _resolve(ns, cfg, "xi")
    if xi_text is None:
        raise ConfigError("sigma-hat requires --xi (comma-separated floats)")
    xi = np.array(_parse_float_list(xi_text))
    _check_dim(len(xi))
    if not np.any(xi):
        raise ConfigError("--xi must be nonzero")
    k_lo = _resolve(ns, cfg, "k_lo", default=-6)
    k_hi = _resolve(ns, cfg, "k_hi", default=6)
    try:
        _integer_scales((k_lo, k_hi))       # a k past the double range
    except ValueError as exc:
        raise ConfigError(f"--k-lo/--k-hi: {exc}")
    if k_lo > k_hi:
        raise ConfigError(f"k range [{k_lo}, {k_hi}] is empty")
    if k_hi - k_lo + 1 > MAX_SCALES:
        raise ConfigError(f"k range [{k_lo}, {k_hi}] spans more than "
                          f"{MAX_SCALES} scales")
    tol = _check_tol(_resolve(ns, cfg, "tol", default=1e-10))
    ks = range(k_lo, k_hi + 1)
    try:
        bounds = sigma_hat_upper_bound(xi, ks).tolist()
    except ValueError as exc:
        raise ConfigError(f"--xi: {exc}")
    # nan where quadrature does not reach: the row carries the bound alone
    vals = sigma_hat_dyadics(xi, ks, tol).tolist()
    rows, failures = [], []
    for k, bound, val in zip(ks, bounds, vals):
        row = {"k": k, "quad_tol": tol, "certified_bound": bound}
        if cmath.isnan(val):
            row.update({"abs": None, "real": None, "imag": None,
                        "passed": True})
        else:
            ok = abs(val) <= bound + tol + 1e-12
            row.update({"abs": abs(val), "real": val.real, "imag": val.imag,
                        "passed": ok})
            if not ok:
                failures.append(f"certified transform bound violated at k={k}: "
                                f"|value| {abs(val):.6e} > {bound:.6e}")
        rows.append(row)
    return rows, {"xi": list(map(float, xi))}, failures


def cmd_kernel_verify(ns, cfg, seed, quick):
    d = _check_dim(_resolve(ns, cfg, "d", default=2))
    samples = _resolve(ns, cfg, "samples", default=preset(
        "kernel-certification", quick)["cf_samples"])
    if samples < 1000:
        raise ConfigError("samples must be >= 1000")
    rows, failures = _criterion_rows([
        run("closed-form-oracles", seed, quick),
        run("kernel-certification", seed, quick, gram_dims=(d,),
            cf_dims=(d,), cf_samples=samples),
        run("subordination-identity", seed, quick)])
    return rows, {"d": d, "samples": samples}, failures


def _growth_table(ns, cfg, seed, quick, d_list):
    """Criterion 7's sup searches over d_list without its induction terms:
    one row per dimension, the criterion's verdict."""
    defaults = preset("log-growth", quick)
    budget = _resolve(ns, cfg, "budget", default=defaults["budget"])
    if budget < 4:
        raise ConfigError("budget must be >= 4")
    # g_profile accepts tolerances in (0, 1)
    tol = _check_tol(_resolve(ns, cfg, "tol", default=defaults["tol"]), 1.0)
    crit = run("log-growth", seed, quick, d_list=d_list, budget=budget,
               tol=tol, ind_dims=(), per_dim=0)
    _criterion_rows([crit])  # the stderr line; the rows are the table
    det = crit.details
    failures = [] if crit.passed else [
        f"criterion 7 (log-growth) failed: monotone {det['monotone']}, "
        f"ratio spread {det['ratio_spread']}"]
    rows = [{**row, "seed": seed} for row in det["rows"]]
    meta = {"budget": budget, "profile_tol": det["profile_tol"],
            "fit_slope": det["fit_slope"],
            "fit_intercept": det["fit_intercept"],
            "fit_slope_lower": det["fit_slope_lower"],
            "fit_intercept_lower": det["fit_intercept_lower"]}
    return rows, meta, failures


def cmd_multiplier_sup(ns, cfg, seed, quick):
    d = _check_dim(_resolve(ns, cfg, "d", default=2))
    return _growth_table(ns, cfg, seed, quick, (d,))


def cmd_log_growth(ns, cfg, seed, quick):
    d_list = _resolve(ns, cfg, "d_list")
    d_list = (preset("log-growth", quick)["d_list"] if d_list is None
              else tuple(map(_check_dim, _parse_list(d_list, int))))
    return _growth_table(ns, cfg, seed, quick, d_list)


def cmd_maxop_check(ns, cfg, seed, quick):
    d = _resolve(ns, cfg, "d", default=1)
    if d not in (1, 2):
        raise ConfigError("maxop-check supports --d 1 or 2")
    mc = _resolve(ns, cfg, "mc",
                  default=preset("maxop-reductions", quick)["mc"])
    if mc < 100:
        raise ConfigError("mc must be >= 100")
    rows, failures = _criterion_rows([
        run("maxop-reductions", seed, quick, dims=(d,), mc=mc)])
    return rows, {"d": d, "mc_samples": mc}, failures


def cmd_accept(ns, cfg, seed, quick):
    rows, failures = _criterion_rows(run_all(seed=seed, quick=quick),
                                     label="name")
    return rows, {"quick": quick}, failures


# Each subcommand's handler, default --format and the settings it reads, each
# with its type (None: a comma-separated list that the handler parses).  Every
# subcommand also takes --seed, --quick, --format, --out and --config; any
# other flag or config key exits 2.
_COMMANDS = {
    "norm-eval": (cmd_norm_eval, "json", {"point": None, "d": int}),
    "osc-corpus": (cmd_osc_corpus, "json", {"d_list": None, "count": int}),
    "sigma-hat": (cmd_sigma_hat, "json",
                  {"xi": None, "k_lo": int, "k_hi": int, "tol": float}),
    "kernel-verify": (cmd_kernel_verify, "json", {"d": int, "samples": int}),
    "multiplier-sup": (cmd_multiplier_sup, "json",
                       {"d": int, "budget": int, "tol": float}),
    # a plot-ready table
    "log-growth": (cmd_log_growth, "csv",
                   {"d_list": None, "budget": int, "tol": float}),
    "maxop-check": (cmd_maxop_check, "json", {"d": int, "mc": int}),
    "accept": (cmd_accept, "json", {}),
}


def _build_parser() -> argparse.ArgumentParser:
    # no abbreviations: --d must not stand for --d-list where --d is absent
    parser = argparse.ArgumentParser(
        prog="curvemax", allow_abbrev=False,
        description="Experiments and acceptance checks for the anisotropic "
                    "curve maximal-function toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, settings) in _COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--seed")
        p.add_argument("--quick", action="store_true", default=None)
        p.add_argument("--format", choices=("csv", "json"))
        p.add_argument("--out")
        p.add_argument("--config")
        for key, cast in settings.items():
            p.add_argument("--" + key.replace("_", "-"), type=cast)
    return parser


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    handler, default_format, settings = _COMMANDS[ns.command]
    try:
        cfg = _load_config(ns.config)
        unread = sorted(set(cfg) - set(settings) - {"seed", "quick", "format"})
        if unread:
            raise ConfigError(f"{ns.command} reads no config key "
                              + ", ".join(map(repr, unread)))
        seed = _resolve_seed(ns, cfg)
        quick = _resolve(ns, cfg, "quick", default=False)
        ns.resolved_format = _resolve(ns, cfg, "format",
                                      default=default_format)
        if ns.resolved_format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, "
                              f"got {ns.resolved_format!r}")
        rows, meta, failures = handler(ns, cfg, seed, quick)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    _emit(ns, ns.command, seed, rows, meta, failures)
    _summary(ns.command, rows, failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
