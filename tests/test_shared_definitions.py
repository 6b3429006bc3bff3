"""Each CLI subcommand runs its criterion's own definition, and each
per-scale quantity has one definition.

The subcommands bind flags onto the acceptance experiments, so a subcommand
restricted to a criterion's preset reports the criterion's numbers, and every
random stream comes from one table of non-overlapping families.  The shell
transform is integrated in one place (curve_measure.sigma_hat_dyadics), and
the phase size, the Lipschitz sum and the certified envelope bound are each
read from one definition over many scales.  Criterion 7's growth experiment,
the sup search per dimension and the fit, is defined only in
acceptance.log_growth.
"""

import ast
import dataclasses
import json
import math
from pathlib import Path

import pytest

import curvemax
from curvemax import acceptance, cli
from curvemax.multiplier import GrowthRow
from curvemax.rng import FAMILIES, SEED_DERIVATION, STREAMS


def run_cli(capsys, *args):
    code = cli.main(list(args))
    return code, json.loads(capsys.readouterr().out)


def test_osc_corpus_reports_criterion_5(capsys):
    code, doc = run_cli(capsys, "osc-corpus", "--quick", "--d-list", "2,3,4")
    crit = acceptance.run("oscillatory-bounds", seed=0, quick=True)
    assert code == 0
    [row] = doc["rows"]
    assert row["criterion"] == 5
    assert row["details"] == crit.details


def test_maxop_check_reports_criterion_8_cases(capsys):
    code, doc = run_cli(capsys, "maxop-check", "--quick", "--d", "1")
    crit = acceptance.run("maxop-reductions", seed=0, quick=True)
    assert code == 0
    [row] = doc["rows"]
    assert row["details"]["mc_samples"] == crit.details["mc_samples"]
    assert row["details"]["cases"] == [
        case for case in crit.details["cases"] if case["d"] == 1]


def test_growth_subcommands_report_criterion_7_rows(capsys):
    # both reran the sup searches outside criterion 7, with their own verdicts
    crit = acceptance.run("log-growth", quick=True, ind_dims=(), per_dim=0)
    code, doc = run_cli(capsys, "log-growth", "--quick", "--format", "json")
    assert code == 0
    assert doc["rows"] == [{**row, "seed": 0} for row in crit.details["rows"]]
    for key in ("fit_slope", "fit_intercept", "fit_slope_lower",
                "fit_intercept_lower"):
        assert doc["meta"][key] == crit.details[key]

    # one dimension is its own table: no padded start from a smaller d
    crit = acceptance.run("log-growth", quick=True, d_list=(8,), ind_dims=(),
                          per_dim=0)
    code, doc = run_cli(capsys, "multiplier-sup", "--quick", "--d", "8")
    assert code == 0
    assert doc["rows"] == [{**row, "seed": 0} for row in crit.details["rows"]]
    assert doc["meta"]["profile_tol"] == crit.details["profile_tol"]


def test_log_growth_verdict_is_criterion_7(capsys, monkeypatch):
    def falling_search(d, budget, seed, *, tol, extra_starts):
        return GrowthRow(d=d, sup_estimate=2.0 - 0.25 * d, g_lower=1.0,
                         sup_g_lower=1.0, envelope_share=0.0, tail_bound=0.0,
                         evals=budget, argmax=(1.0,) + (0.0,) * (d - 1))

    monkeypatch.setattr(acceptance, "sup_search", falling_search)
    code, doc = run_cli(capsys, "log-growth", "--quick", "--d-list", "1,2",
                        "--format", "json")
    assert code == 1
    [msg] = doc["failures"]
    assert msg.startswith("criterion 7 (log-growth) failed: monotone False")


def test_norm_eval_reports_criterion_1(capsys):
    code, doc = run_cli(capsys, "norm-eval", "--d", "2", "--quick")
    crit = acceptance.run("norm-axioms", quick=True, dims=(2,))
    assert code == 0
    [row] = doc["rows"]
    assert row["criterion"] == 1
    assert row["details"] == crit.details
    assert {"polar", "unit_ball_volume"} <= set(
        crit.details["per_dimension"]["2"])


@pytest.mark.parametrize("name, key, spoil", [
    ("polar_integration_check", "polar",
     lambda res: dataclasses.replace(res, passed=False)),
    # 5 sigma off the exact volume 4/3 of the d = 2 unit ball
    ("ball_volume", "unit_ball_volume",
     lambda res: res._replace(value=4.0 / 3.0 + 5.0 * res.stderr)),
], ids=["polar", "unit_ball_volume"])
def test_norm_axioms_gate_catches_a_failed_norm_check(monkeypatch, name, key,
                                                      spoil):
    true_check = getattr(acceptance, name)
    monkeypatch.setattr(acceptance, name,
                        lambda *args, **kwargs: spoil(true_check(*args,
                                                                 **kwargs)))
    res = acceptance.run("norm-axioms", quick=True, dims=(2,))
    assert res.details["per_dimension"]["2"][key]["passed"] is False
    assert not res.passed


def test_stream_families_never_share_a_key():
    spans = {}
    for name, fam in FAMILIES.items():
        assert fam.stream in STREAMS
        spans.setdefault(fam.stream, []).append(
            (fam.offset, fam.offset + math.prod(fam.shape), name))
    for stream_spans in spans.values():
        stream_spans.sort()
        for (_, end, a), (start, _, b) in zip(stream_spans, stream_spans[1:]):
            assert end <= start, f"families {a} and {b} overlap"
    # substream keys (id << 32) ^ i stay apart across streams while i < 2^32
    assert max(fam.offset + math.prod(fam.shape)
               for fam in FAMILIES.values()) <= 2**32


def test_seed_derivation_names_every_entry():
    for name in list(STREAMS) + list(FAMILIES):
        assert f" {name}=" in SEED_DERIVATION


def _modules() -> dict:
    package = Path(curvemax.__file__).parent
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(package.glob("*.py"))}


def _callee(call: ast.Call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def _calls(node) -> list:
    return [_callee(n) for n in ast.walk(node) if isinstance(n, ast.Call)]


def _functions(tree) -> dict:
    return {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}


def test_shell_transform_is_integrated_in_one_place():
    # (module, top-level definition) of each osc_integrals call
    sites = [(mod, getattr(node, "name", None))
             for mod, tree in _modules().items() for node in tree.body
             for name in _calls(node) if name == "osc_integrals"]
    assert [site for site in sites if site[0] != "oscillatory"] == [
        ("curve_measure", "_shells")]
    sigma_hat = _functions(_modules()["curve_measure"])["sigma_hat"]
    assert not {"osc_integral", "osc_integrals"} & set(_calls(sigma_hat))


def _code_names(tree) -> set:
    """Names a module reads in code; string constants (docstrings) do not
    count."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names


def test_lipschitz_weights_are_read_only_in_curve_measure():
    for mod, tree in _modules().items():
        if mod != "curve_measure":
            assert not {"_lipschitz_coeffs", "_LN2"} & _code_names(tree), mod


def _per_iteration(node) -> list:
    """The parts of a loop or comprehension that run once per iteration."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return [node.target] + node.body
    if isinstance(node, ast.While):
        return [node.test] + node.body
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
        first, *rest = node.generators
        return [node.elt, first.target, *first.ifs, *rest]
    if isinstance(node, ast.DictComp):
        first, *rest = node.generators
        return [node.key, node.value, first.target, *first.ifs, *rest]
    return []


def test_phase_size_is_one_call_over_the_scales():
    # the profile's quadrature gate reads the phase size, and the envelope
    # entries sigma_hat_upper_bound, once over all their scales; the near
    # term reads its difference bound from one _lipschitz_size call.  The
    # profile's gate forms the logs of the phase-size terms once
    # (_dyadic_logs) and takes the size from them (_phase_size, the body of
    # dyadic_phase_size), as it hands their per-scale maximum on to _shells.
    # The CLI's sigma-hat gates nothing: sigma_hat_dyadics decides its reach
    modules = _modules()
    for mod, gates in (("multiplier", ("_phase_size",)), ("cli", ())):
        repeated = [name for node in ast.walk(modules[mod])
                    for part in _per_iteration(node) for name in _calls(part)]
        for name in (*gates, "_dyadic_logs", "sigma_hat_upper_bound",
                     "sigma_hat_dyadics", "_lipschitz_size"):
            assert name not in repeated, (mod, name)
        for name in (*gates, "sigma_hat_upper_bound"):
            assert name in _calls(modules[mod]), (mod, name)
    for mod in ("multiplier", "cli"):
        assert "dyadic_phase_size" not in _calls(modules[mod]), mod


def _libm_calls(node) -> list:
    """The np.sin and np.cos calls under node, and its np.exp calls whose
    argument holds an imaginary constant."""
    def imaginary(call):
        return any(isinstance(c, ast.Constant) and isinstance(c.value, complex)
                   for arg in call.args for c in ast.walk(arg))
    return [name for n in ast.walk(node) if isinstance(n, ast.Call)
            for name in [_callee(n)]
            if name in ("sin", "cos") or (name == "exp" and imaginary(n))]


def test_sampled_and_panel_exponentials_come_from_tangents():
    # the kernel draws, the Kronrod panels and criterion 3's characteristic
    # functions take every sine, cosine and e^{i theta} from one tangent
    # (oscillatory._sin and _cis, stable_poisson._cos): numpy's vectorised
    # tan runs several times faster than its sin, cos and complex exp
    modules = _modules()
    for mod, names in (("stable_poisson", ("_cos", "sample_symmetric_stable",
                                           "sample_positive_stable",
                                           "sample_kernel_batch",
                                           "semigroup_check")),
                       ("oscillatory", ("_sin", "_cis", "_kronrod",
                                        "osc_integrals")),
                       ("acceptance", ("kernel_certification",))):
        functions = _functions(modules[mod])
        for name in names:
            assert not _libm_calls(functions[name]), (mod, name)
    # _expand keeps np.exp: its certified end-term rounding bound counts the
    # exponential as one rounding, and numpy documents no error bound for
    # its vectorised tan; osc_integral's other is a constant phase's closed
    # form
    assert {name for name, node in _functions(modules["oscillatory"]).items()
            if _libm_calls(node)} == {"_expand", "osc_integral"}


def test_growth_experiment_is_defined_in_acceptance():
    # criterion 7 runs the sup searches and fits the slope; multiplier only
    # searches one dimension
    modules = _modules()
    callers = [mod for mod, tree in modules.items()
               if "sup_search" in _calls(tree)]
    assert callers == ["acceptance"]
    assert "polyfit" not in _calls(modules["multiplier"])
