"""Each CLI subcommand runs its criterion's own definition.

The subcommands bind flags onto the acceptance experiments, so a subcommand
restricted to a criterion's preset reports the criterion's numbers, and every
random stream comes from one table of non-overlapping families.
"""

import dataclasses
import json
import math

import pytest

from curvemax import acceptance, cli
from curvemax.multiplier import GrowthRow, GrowthTable
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

    # one dimension is its own table: no padded start from a smaller d
    crit = acceptance.run("log-growth", quick=True, d_list=(8,), ind_dims=(),
                          per_dim=0)
    code, doc = run_cli(capsys, "multiplier-sup", "--quick", "--d", "8")
    assert code == 0
    assert doc["rows"] == [{**row, "seed": 0} for row in crit.details["rows"]]
    assert doc["meta"]["profile_tol"] == crit.details["profile_tol"]


def test_log_growth_verdict_is_criterion_7(capsys, monkeypatch):
    def falling_table(d_list, budget, seed, tol):
        rows = tuple(GrowthRow(d=d, sup_estimate=2.0 - 0.25 * i,
                               argmax=(1.0,) + (0.0,) * (d - 1), evals=budget,
                               seed=seed, tail_bound=0.0, g_lower=1.0,
                               sup_g_lower=1.0, envelope_share=0.0)
                     for i, d in enumerate(d_list))
        return GrowthTable(rows=rows, fit_slope=-1.0, fit_intercept=2.0,
                           residuals=(0.0,) * len(rows))

    monkeypatch.setattr(acceptance, "log_growth_experiment", falling_table)
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
