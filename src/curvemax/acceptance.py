"""Nine-part acceptance suite shared by the CLI and the test gate.

Each criterion is an experiment function whose explicit parameters set its
dimensions, counts, budgets and Monte Carlo draws; it returns (passed,
details), and the details pair every reported number with its tolerance or
standard error.  ``CRITERIA`` holds one row per criterion: its number, name,
experiment and two parameter sets, full and quick.  ``run(name, seed,
quick, **overrides)`` runs one criterion at a preset, times it and wraps the
outcome in a CriterionResult.  Quick mode shrinks sample counts and budgets
but never loosens a tolerance or swaps out the logic under test.  Every CLI
subcommand except ``sigma-hat`` is a binding of ``run``: its flags are
overrides and its verdict is the criterion's, so a subcommand and its
criterion report the same numbers.  Criterion 1 holds the polar and
unit-ball checks of ``norm-eval``, and criterion 7 the growth table of
``log-growth`` and ``multiplier-sup``, one row per dimension.  A fixed seed
reproduces every number bit for bit; the final criterion checks exactly that.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .curve_measure import DyadicWindow, mu_hat, sigma_hat
from .grid import from_callable
from .maxop import sandwich_check, split_check
from .multiplier import g_profile, induction_diagnostics, nu_hat, sup_search
from .norms import (_annulus_point, ball_volume, dilate, make_space,
                    polar_integration_check, quasi_triangle_ratio, rho)
from .oscillatory import PhasePoly, _cis, vdc_bound_check, vinogradov_check
from .rng import family_stream
from .stable_poisson import (gram_psd_check, sample_kernel_batch,
                             semigroup_check, stable_density_1d,
                             subordination_identity_check)


@dataclass(frozen=True)
class Criterion:
    number: int
    name: str
    experiment: Callable        # (seed, **parameters) -> (passed, details)
    full: dict                  # parameters of the full preset
    quick: dict                 # what the quick preset changes


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: dict
    elapsed: float


def jsonable(x):
    """Recursively convert numpy scalars and containers to plain JSON types."""
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return float(x)
    if isinstance(x, np.ndarray):
        return [jsonable(v) for v in x.tolist()]
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    return x


def _check_something(least: int = 1, /, **params):
    """ValueError naming the first parameter that leaves a gate nothing to
    check: an empty dimension list or a count below `least` (2 where the
    gate needs a standard error or a half-resolution grid)."""
    for name, value in params.items():
        if len(value) == 0 if hasattr(value, "__len__") else value < least:
            raise ValueError(f"{name} = {value!r} leaves a gate nothing "
                             "to check")


# -- criterion 1 -------------------------------------------------------------

def norm_axioms(seed: int, dims, trials: int, polar_grid: int,
                ball_samples: int) -> tuple:
    """Homogeneity and symmetry to 1e-12 relative, quasi-triangle ratio <= 2;
    at d <= 2 the polar identity and the unit-ball volume (4 sigma).

    The polar gate compares the midpoint integral of exp(-rho) over
    {rho <= R} with alpha |B_1| int_0^R r^{alpha-1} exp(-r) dr, |B_1|
    counted on the same grid over [-1, 1]^d (R = POLAR_BOX_RADIUS), to 5e-2
    plus twice the drift from halving the grid."""
    _check_something(dims=dims, trials=trials)
    _check_something(2, polar_grid=polar_grid)
    tol = 1e-12
    per_d = {}
    passed = True
    for d in dims:
        rng = family_stream(seed, "norm-axioms", d)
        x = rng.standard_normal((trials, d)) * 10.0 ** rng.uniform(-6, 6, (trials, 1))
        s = 10.0 ** rng.uniform(-3, 3, trials)
        r = rho(x)
        hom = float(np.max(np.abs(rho(dilate(x, s)) - s * r) / (s * r)))
        sym = float(np.max(np.abs(rho(-x) - r) / r))
        quasi = quasi_triangle_ratio(make_space(d), trials=trials, seed=seed)
        ok = hom <= tol and sym <= tol and quasi <= 2.0
        per_d[d] = {"homogeneity_max": hom, "symmetry_max": sym,
                    "rel_tol": tol, "quasi_ratio": quasi, "quasi_limit": 2.0}
        if d <= 2:
            space = make_space(d)
            pol = polar_integration_check(space, lambda r: np.exp(-r),
                                          tol=5e-2, grid_n=polar_grid)
            bv = ball_volume(space, 1.0, samples=ball_samples, seed=seed)
            exact = 2.0 if d == 1 else 4.0 / 3.0
            ball_ok = abs(bv.value - exact) <= max(4.0 * bv.stderr, 1e-12)
            per_d[d].update(
                polar={"value": pol.lhs, "reference": pol.rhs,
                       "disc_error": pol.disc_error, "passed": pol.passed},
                unit_ball_volume={"value": bv.value, "stderr": bv.stderr,
                                  "reference": exact, "passed": ball_ok})
            ok = ok and pol.passed and ball_ok
        passed = passed and ok
    return passed, {"trials_per_dim": trials, "per_dimension": per_d}


# -- criterion 2 -------------------------------------------------------------

def closed_forms(seed: int, n_freq: int, n_pts: int) -> tuple:
    """Quadrature and density inversion against one-dimensional closed forms."""
    _check_something(n_freq=n_freq, n_pts=n_pts)
    rng = family_stream(seed, "closed-forms", 0)
    xs = np.sign(rng.standard_normal(n_freq)) * 10.0 ** rng.uniform(-2, 1.45, n_freq)
    err_sigma = 0.0
    err_mu = 0.0
    for x in xs:
        cf_sigma = 2.0 * np.sinc(2.0 * x) - np.sinc(x)
        err_sigma = max(err_sigma, abs(sigma_hat((x,), tol=1e-11) - cf_sigma))
        err_mu = max(err_mu, abs(mu_hat((x,), tol=1e-11) - np.sinc(2.0 * x)))

    pts = rng.uniform(-3.0, 3.0, n_pts)
    err_cauchy = 0.0
    err_gauss = 0.0
    for x in pts:
        err_cauchy = max(err_cauchy, abs(
            stable_density_1d(1.0, x, tol=1e-9)
            - 2.0 / (1.0 + 4.0 * math.pi**2 * x**2)))
        err_gauss = max(err_gauss, abs(
            stable_density_1d(2.0, x, tol=1e-9)
            - math.sqrt(math.pi) * math.exp(-math.pi**2 * x**2)))

    details = {
        "curve_transform_max_err": {"value": err_sigma, "tol": 1e-9},
        "solid_transform_max_err": {"value": err_mu, "tol": 1e-9},
        "cauchy_density_max_err": {"value": err_cauchy, "tol": 1e-6},
        "gauss_density_max_err": {"value": err_gauss, "tol": 1e-6},
        "transform_points": n_freq, "density_points": n_pts,
    }
    passed = (err_sigma <= 1e-9 and err_mu <= 1e-9
              and err_cauchy <= 1e-6 and err_gauss <= 1e-6)
    return passed, details


# -- criterion 3 -------------------------------------------------------------

def kernel_certification(seed: int, gram_dims, gram_sets: int, cf_dims,
                         cf_samples: int, cf_freqs: int,
                         semigroup_samples: int) -> tuple:
    """Gram positivity, empirical characteristic functions, semigroup law."""
    _check_something(gram_dims=gram_dims, gram_sets=gram_sets,
                     cf_dims=cf_dims, cf_freqs=cf_freqs)
    _check_something(2, cf_samples=cf_samples,
                     semigroup_samples=semigroup_samples)
    min_eig = math.inf
    for d in gram_dims:
        for i in range(gram_sets):
            rng = family_stream(seed, "gram", d, i)
            pts = rng.standard_normal((20, d)) * 10.0 ** rng.uniform(-2, 2, (20, 1))
            t = 10.0 ** rng.uniform(-1, 1)
            min_eig = min(min_eig, gram_psd_check(pts, t=t))
    gram_ok = min_eig >= -1e-8

    cf_ok = True
    worst = {"gap": 0.0, "sigma": math.inf, "ratio": 0.0, "d": 0}
    for d in cf_dims:
        space = make_space(d)
        pts, _ = sample_kernel_batch(space, 1.0, cf_samples,
                                     family_stream(seed, "kernel-draws", d))
        rngf = family_stream(seed, "kernel-frequencies", d)
        freqs = np.array([_annulus_point(rngf, d, 0.25, 2.5)
                          for _ in range(cf_freqs)])
        target = np.exp(-rho(freqs))
        w = 2.0 * math.pi * freqs.T
        sum_c = np.zeros(cf_freqs)
        sum_s = np.zeros(cf_freqs)
        sq_c = np.zeros(cf_freqs)
        sq_s = np.zeros(cf_freqs)
        for start in range(0, cf_samples, 200_000):
            c, s = _cis(pts[start:start + 200_000] @ w)
            sum_c += c.sum(axis=0)
            sum_s += s.sum(axis=0)
            sq_c += (c * c).sum(axis=0)
            sq_s += (s * s).sum(axis=0)
        mean_c, mean_s = sum_c / cf_samples, sum_s / cf_samples
        var = (sq_c / cf_samples - mean_c**2) + (sq_s / cf_samples - mean_s**2)
        se = np.sqrt(np.maximum(var, 0.0) / cf_samples)
        gap = np.abs(mean_c + 1j * mean_s - target)
        cf_ok = cf_ok and bool(np.all(gap <= 3.0 * se))
        i = int(np.argmax(gap / se))
        if gap[i] / se[i] > worst["ratio"]:
            worst = {"gap": float(gap[i]), "sigma": float(se[i]),
                     "ratio": float(gap[i] / se[i]), "d": d}

    semi = semigroup_check(0.7, 1.3, [[0.3, 1.1], [1.0, 0.2], [0.05, 0.6]],
                           n_samples=semigroup_samples, seed=seed)

    details = {
        "gram_min_eigenvalue": {"value": min_eig, "tol": -1e-8},
        "gram_sets_per_dim": gram_sets,
        "cf_samples": cf_samples, "cf_frequencies_per_dim": cf_freqs,
        "cf_worst": {"gap": worst["gap"], "three_sigma": 3.0 * worst["sigma"],
                     "d": worst["d"]},
        "semigroup_fourier_gap": {"value": semi.fourier_gap, "tol": 5e-15},
        "semigroup_sample_gap": {"value": semi.sample_gap,
                                 "three_sigma": 3.0 * semi.sample_sigma},
    }
    passed = gram_ok and cf_ok and semi.passed
    return passed, details


# -- criterion 4 -------------------------------------------------------------

def subordination(seed: int) -> tuple:
    """Fractional power identity at a 3 x 3 grid of arguments and exponents."""
    worst = 0.0
    table = {}
    for x in (0.5, 1.0, 4.0):
        for gamma in (0.25, 0.5, 0.75):
            res = subordination_identity_check(x, gamma, tol=1e-9)
            rel = abs(res.lhs - res.rhs) / abs(res.lhs)
            worst = max(worst, rel)
            table[f"x={x},gamma={gamma}"] = rel
    details = {"max_rel_err": {"value": worst, "tol": 1e-6},
               "per_point_rel_err": table}
    return worst <= 1e-6, details


# -- criterion 5 -------------------------------------------------------------

def oscillatory_corpus(seed: int, dims, count: int,
                       oracle_count: int) -> tuple:
    """Random polynomial corpus: both decay bounds and the sublevel oracle,
    a brute 400,000-cell midpoint grid on [-1, 1] whose own error, at most
    (sign changes + 2) cells of 5e-6, lies far below its 1e-4 gate."""
    _check_something(dims=dims, count=count, oracle_count=oracle_count)
    max_vin = max_vdc = max_sublevel_err = 0.0
    ts = -1.0 + (np.arange(400_000) + 0.5) * 2.0 / 400_000
    for d in dims:
        rng = family_stream(seed, "osc-corpus", d)
        for i in range(count):
            coeffs = (np.sign(rng.standard_normal(d))
                      * 10.0 ** rng.uniform(-1, 3, d))
            b0 = rng.uniform(-3.0, 3.0)
            delta = 10.0 ** rng.uniform(-3, 0)
            p = PhasePoly(tuple(coeffs), constant=b0)
            vin = vinogradov_check(p, -1.0, 1.0, delta)
            max_vin = max(max_vin, vin.ratio)
            vdc = vdc_bound_check(PhasePoly(tuple(coeffs)), -1.0, 1.0, tol=1e-8)
            max_vdc = max(max_vdc, vdc.ratio)
            if i < oracle_count:    # vin.measured is sublevel_measure's
                brute = np.count_nonzero(np.abs(p(ts)) <= delta) * 2.0 / 400_000
                max_sublevel_err = max(max_sublevel_err,
                                       abs(vin.measured - brute))
    details = {
        "dims": list(dims), "polynomials_per_dim": count,
        "vinogradov_max_ratio": max_vin,
        "vdc_max_ratio": max_vdc,
        "sublevel_vs_root_oracle_max_err": {"value": max_sublevel_err,
                                            "tol": 1e-4},
    }
    passed = (math.isfinite(max_vin) and math.isfinite(max_vdc)
              and max_sublevel_err <= 1e-4)
    return passed, details


# -- criterion 6 -------------------------------------------------------------

def multiplier_profile(seed: int, n_oracle: int, dims, per_dim: int,
                       n_env: int) -> tuple:
    """Profile vs direct summation, dyadic invariance, base-case envelope.

    The envelope constant is max |nu_hat(eta)| / min(eta, 1/eta) for d = 1,
    and the profile's own certified bounds cap it.  For eta <= 1,
    |sigma_hat(eta) - 1| <= L_1 eta with
    L_1 = curve_measure._lipschitz_coeffs(1) = 3 pi/2, and
    |e^-eta - 1| <= eta, so the ratio is at most 1 + 3 pi/2.  For
    eta >= 1, |sigma_hat(eta)| <= curve_measure._decay_prefactor((eta,)) =
    2 / (pi eta), and e^-eta <= 1 / (e eta), so the ratio is at most
    2/pi + 1/e.  The gate is the larger, 1 + 3 pi/2 ~ 5.712.
    """
    _check_something(n_oracle=n_oracle, dims=dims, per_dim=per_dim,
                     n_env=n_env)
    rng = family_stream(seed, "profile-oracle", 0)

    max_oracle_err = 0.0
    for _ in range(n_oracle):
        x = float(np.sign(rng.standard_normal()) * 10.0 ** rng.uniform(-1, 1))
        prof = g_profile((x,), tol=1e-7)
        ks = np.arange(-200, 61)
        eta = 2.0**ks * x
        vals = np.abs(2.0 * np.sinc(2.0 * eta) - np.sinc(eta)
                      - np.exp(-(2.0**ks) * abs(x)))
        direct = float(np.sqrt(np.sum(vals**2)))
        max_oracle_err = max(max_oracle_err, abs(prof.g_value - direct))
    oracle_ok = max_oracle_err <= 1e-6

    inv_ok = True
    worst_inv = {"diff": 0.0, "allowance": math.inf}
    for d in dims:
        rngd = family_stream(seed, "profile-invariance", d)
        for _ in range(per_dim):
            xi = _annulus_point(rngd, d, 0.5, 2.0)
            g1 = g_profile(xi, tol=2e-3)
            g2 = g_profile(dilate(xi, 2.0), tol=2e-3)
            diff = abs(g1.g_value - g2.g_value)
            allowance = g1.tail_bound + g2.tail_bound
            if diff > allowance:
                inv_ok = False
            if diff - allowance > worst_inv["diff"] - worst_inv["allowance"]:
                worst_inv = {"diff": diff, "allowance": allowance}

    etas = np.logspace(-4, 4, n_env)
    env_const = 0.0
    for eta in etas:
        ratio = abs(nu_hat((float(eta),), 0, tol=1e-9)) / min(eta, 1.0 / eta)
        env_const = max(env_const, ratio)
    env_limit = 1.0 + 1.5 * math.pi  # max(1 + 3 pi / 2, 2 / pi + 1 / e)
    env_ok = env_const <= env_limit

    details = {
        "summation_oracle_max_err": {"value": max_oracle_err, "tol": 1e-6},
        "oracle_points": n_oracle,
        "dyadic_invariance_worst": worst_inv,
        "invariance_points_per_dim": per_dim,
        "base_case_envelope_constant": {"value": env_const,
                                        "limit": env_limit,
                                        "grid_points": n_env},
    }
    return oracle_ok and inv_ok and env_ok, details


# -- criterion 7 -------------------------------------------------------------

def log_growth(seed: int, d_list, budget: int, tol: float, ind_dims,
               per_dim: int) -> tuple:
    """Monotone sup estimates, bounded ratio to log(d+2), induction terms;
    one row per dimension holds its sup search.

    Each search also starts from the argmax of the largest dimension so far,
    zero-padded; the profile treats padded vectors identically in any
    ambient dimension, so the sups are monotone along the list by
    construction.  Two slopes are least-squares fits against log(d+1): one
    of the sups of g, and one of the rows' sup_g_lower, on certified floors.
    The induction terms are off exactly when ind_dims is empty and per_dim 0.
    """
    _check_something(d_list=d_list)
    if per_dim < 0 or bool(len(ind_dims)) != (per_dim > 0):
        raise ValueError(f"ind_dims = {ind_dims!r} and per_dim = {per_dim!r} "
                         "must switch the induction terms on or off together")
    rows, prev = [], ()
    for d in d_list:
        pad = [prev + (0.0,) * (d - len(prev))] if 0 < len(prev) < d else []
        rows.append(sup_search(d, budget=budget, seed=seed, tol=tol,
                               extra_starts=pad))
        if len(prev) <= d:
            prev = rows[-1].argmax
    sups = [row.sup_estimate for row in rows]
    lowers = [row.sup_g_lower for row in rows]
    if len(rows) >= 2:
        x = np.log(np.array(d_list, dtype=float) + 1.0)
        slope, intercept = np.polyfit(x, sups, 1)
        slope_lower, intercept_lower = np.polyfit(x, lowers, 1)
    else:
        slope, intercept = 0.0, sups[0]
        slope_lower, intercept_lower = 0.0, lowers[0]
    monotone = all(b >= a for a, b in zip(sups[:-1], sups[1:]))
    ratios = [s / math.log(d + 2.0) for s, d in zip(sups, d_list)]
    spread = max(ratios) / min(ratios)

    max_far = 0.0
    max_near = 0.0
    for d in ind_dims:
        rng = family_stream(seed, "induction", d)
        for _ in range(per_dim):
            diag = induction_diagnostics(_annulus_point(rng, d), tol=tol)
            max_far = max(max_far, diag.term_far + diag.term_far_tail)
            max_near = max(max_near, diag.term_near + diag.term_near_tail)
    terms_ok = (math.isfinite(max_far) and math.isfinite(max_near)
                and max_far <= 100.0 and max_near <= 100.0)

    details = {
        "d_list": list(d_list), "budget": budget, "profile_tol": tol,
        "rows": [asdict(row) for row in rows],
        "monotone": monotone,
        "ratio_to_log": ratios,
        "ratio_spread": {"value": spread, "limit": 3.0},
        "fit_slope": slope, "fit_intercept": intercept,
        "fit_slope_lower": slope_lower,
        "fit_intercept_lower": intercept_lower,
        "induction_max_far_term": max_far,
        "induction_max_near_term": max_near,
        "induction_points_per_dim": per_dim,
    }
    passed = monotone and spread < 3.0 and terms_ok
    return passed, details


# -- criterion 8 -------------------------------------------------------------

def _gauss_mix(centers, weights, spreads):
    centers = [np.asarray(c, dtype=float) for c in centers]

    def fn(pts):
        pts = np.asarray(pts, dtype=float)
        out = np.zeros(len(pts))
        for c, w, s in zip(centers, weights, spreads):
            out += w * np.exp(-np.sum((pts - c) ** 2, axis=1) / s)
        return out

    return fn


def maxop_cases(d: int, quick: bool):
    """Grid corpus for the averaging-operator comparisons.

    Inside the comparison region every read stays where each bump is
    concave, and in 2d the bump centers sit above the box so the parabola
    coordinate of every read moves toward the peak; both keep the
    continuum inequalities strict, so measured violations are purely
    numerical and halve with the grid step.
    """
    if d == 1:
        n = 65 if quick else 129
        t = 128 if quick else 256
        win = DyadicWindow(-3, 0)
        radii = 2.0 ** np.linspace(-3, 0, 7)
        return [("constant", lambda p: np.ones(len(p)), -2.0, 2.0, (n,),
                 win, radii, t, False),
                ("two-bumps", _gauss_mix([[0.0], [0.5]], [0.75, 0.25],
                                         [30.0, 26.0]),
                 -2.0, 2.0, (n,), win, radii, t, True)]
    if d == 2:
        n = 49 if quick else 65
        t = 96 if quick else 160
        win = DyadicWindow(-4, -1)
        radii = 2.0 ** np.linspace(-4, -1, 6)
        return [("bump", _gauss_mix([[0.0, 2.0]], [1.0], [28.0]),
                 (-1.0, -1.0), (1.0, 1.0), (n, n), win, radii, t, True),
                ("two-bumps", _gauss_mix([[0.2, 2.0], [-0.1, 2.3]],
                                         [0.7, 0.3], [28.0, 32.0]),
                 (-1.0, -1.0), (1.0, 1.0), (n, n), win, radii, t, True)]
    raise ValueError("grid comparison cases exist for d = 1 or 2")


def _refinement(check, f_coarse, f_fine):
    """One comparison on a grid and on its refinement, which must halve it."""
    c, f = check(f_coarse), check(f_fine)
    halved = f.violation <= 0.5 * c.violation + 1e-12
    return ({"violation_coarse": c.violation, "error_coarse": c.error_bound,
             "violation_fine": f.violation, "error_fine": f.error_bound,
             "halved": halved}, c.passed and f.passed and halved)


def maxop_reductions(seed: int, dims, mc: int,
                     small_grids: bool) -> tuple:
    """Sandwich and split inequalities on grids, with refinement halving."""
    _check_something(dims=dims)
    cases = [(d,) + c for d in dims for c in maxop_cases(d, small_grids)]

    passed = True
    rows = []
    for d, name, fn, mins, maxs, shape, window, radii, t_samples, do_split \
            in cases:
        fine_shape = tuple(2 * (n - 1) + 1 for n in shape)
        grids = (from_callable(fn, mins, maxs, shape),
                 from_callable(fn, mins, maxs, fine_shape))
        row = {"d": d, "case": name, "shape": list(shape)}
        row["sandwich"], ok = _refinement(
            lambda f: sandwich_check(f, window, radii, t_samples), *grids)
        passed = passed and ok
        if do_split:
            row["split"], ok = _refinement(
                lambda f: split_check(f, window, t_samples, mc_samples=mc,
                                      seed=seed), *grids)
            passed = passed and ok
        rows.append(row)

    return passed, {"mc_samples": mc, "cases": rows}


# -- criterion 9 -------------------------------------------------------------

def determinism(seed: int) -> tuple:
    """Two quick runs of criteria 1-8 must serialize identically."""
    runs = [[run(c.name, seed, quick=True) for c in CRITERIA[:8]]
            for _ in range(2)]
    blobs = [json.dumps([{"number": r.number, "name": r.name,
                          "passed": r.passed, "details": r.details}
                         for r in results], sort_keys=True)
             for results in runs]
    same = blobs[0] == blobs[1]
    details = {"runs_compared": 2, "identical": same,
               "serialized_bytes": len(blobs[0]),
               "rerun_passed": all(r.passed for r in runs[0])}
    return same, details


# Each criterion's experiment with its full parameters, then what quick changes.
CRITERIA = (
    Criterion(1, "norm-axioms", norm_axioms,
              {"dims": (1, 2, 3, 4, 8, 16, 32, 64), "trials": 10**4,
               "polar_grid": 1024, "ball_samples": 10**6},
              {"trials": 1000, "polar_grid": 512, "ball_samples": 10**5}),
    Criterion(2, "closed-form-oracles", closed_forms,
              {"n_freq": 100, "n_pts": 50}, {"n_freq": 25, "n_pts": 15}),
    Criterion(3, "kernel-certification", kernel_certification,
              {"gram_dims": (2, 4, 8), "gram_sets": 50, "cf_dims": (1, 2, 4),
               "cf_samples": 10**6, "cf_freqs": 20,
               "semigroup_samples": 200_000},
              {"gram_sets": 10, "cf_samples": 10**5, "cf_freqs": 8,
               "semigroup_samples": 50_000}),
    Criterion(4, "subordination-identity", subordination, {}, {}),
    Criterion(5, "oscillatory-bounds", oscillatory_corpus,
              {"dims": (2, 3, 4, 5, 6), "count": 200, "oracle_count": 10},
              {"dims": (2, 3, 4), "count": 30, "oracle_count": 5}),
    Criterion(6, "multiplier-profile", multiplier_profile,
              {"n_oracle": 10, "dims": (1, 2, 3, 4), "per_dim": 13,
               "n_env": 60},
              {"n_oracle": 4, "per_dim": 3, "n_env": 20}),
    Criterion(7, "log-growth", log_growth,
              {"d_list": (1, 2, 4, 8, 16), "budget": 1000, "tol": 2e-3,
               "ind_dims": (2, 4, 8, 16), "per_dim": 100},
              {"d_list": (1, 2, 4, 8), "budget": 120, "ind_dims": (2, 4, 8),
               "per_dim": 20}),
    Criterion(8, "maxop-reductions", maxop_reductions,
              {"dims": (1, 2), "mc": 2000, "small_grids": False},
              {"mc": 500, "small_grids": True}),
    Criterion(9, "determinism", determinism, {}, {}),
)


def preset(name: str, quick: bool) -> dict:
    """The parameters criterion `name` runs with in quick or full mode."""
    crit = {c.name: c for c in CRITERIA}[name]
    return {**crit.full, **crit.quick} if quick else dict(crit.full)


def run(name: str, seed: int = 0, quick: bool = False,
        **overrides) -> CriterionResult:
    """Criterion `name` at its quick or full preset, overrides applied."""
    crit = {c.name: c for c in CRITERIA}[name]
    t0 = time.perf_counter()
    passed, details = crit.experiment(seed, **{**preset(name, quick),
                                               **overrides})
    return CriterionResult(number=crit.number, name=crit.name,
                           passed=bool(passed), details=jsonable(details),
                           elapsed=time.perf_counter() - t0)


def run_all(seed: int = 0, quick: bool = False) -> list:
    """All nine criteria in order; criterion 9 always reruns 1-8 in quick mode."""
    return [run(c.name, seed, quick) for c in CRITERIA]
