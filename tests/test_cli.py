import json

import pytest

from curvemax import cli


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_timestamp(text):
    return "\n".join(line for line in text.splitlines()
                     if "timestamp" not in line)


def test_norm_eval_known_point(capsys):
    code, out, err = run_cli(capsys, "norm-eval", "--d", "2", "--point", "3,4",
                             "--quick")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "norm-eval"
    assert doc["seed"] == 0
    assert "Philox" in doc["seed_derivation"]
    assert doc["passed"] is True
    point_rows = [r for r in doc["rows"] if r["check"] == "point-norm"]
    assert point_rows and point_rows[0]["value"] == 5.0
    assert "norm-eval: PASS" in err


def test_output_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "norm-eval", "--d", "3", "--quick")
    _, out2, _ = run_cli(capsys, "norm-eval", "--d", "3", "--quick")
    assert strip_timestamp(out1) == strip_timestamp(out2)


def test_seed_changes_samples(capsys):
    _, out1, _ = run_cli(capsys, "norm-eval", "--d", "3", "--quick")
    _, out2, _ = run_cli(capsys, "norm-eval", "--d", "3", "--quick",
                         "--seed", "11")
    assert strip_timestamp(out1) != strip_timestamp(out2)


def test_env_seed_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("PARABOLIC_SEED", "11")
    _, out_env, _ = run_cli(capsys, "norm-eval", "--d", "3", "--quick")
    monkeypatch.delenv("PARABOLIC_SEED")
    _, out_flag, _ = run_cli(capsys, "norm-eval", "--d", "3", "--quick",
                             "--seed", "11")
    assert strip_timestamp(out_env) == strip_timestamp(out_flag)

    monkeypatch.setenv("PARABOLIC_SEED", "11")
    _, out_both, _ = run_cli(capsys, "norm-eval", "--d", "3", "--quick",
                             "--seed", "0")
    assert json.loads(out_both)["seed"] == 0


def test_config_file_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": 5, "quick": True, "d": 3}))
    _, out_cfg, _ = run_cli(capsys, "norm-eval", "--config", str(cfg))
    _, out_flags, _ = run_cli(capsys, "norm-eval", "--d", "3", "--seed", "5",
                              "--quick")
    assert strip_timestamp(out_cfg) == strip_timestamp(out_flags)
    # explicit flag wins over the config value
    _, out_override, _ = run_cli(capsys, "norm-eval", "--config", str(cfg),
                                 "--seed", "6")
    assert json.loads(out_override)["seed"] == 6


@pytest.mark.parametrize("args, fragment", [
    (("sigma-hat", "--quick"), "requires --xi"),
    (("norm-eval", "--d", "99", "--quick"), "outside [1, 64]"),
    (("maxop-check", "--mc", "5", "--quick"), "mc must be"),
    (("norm-eval", "--seed", "-3", "--quick"), "seed"),
    (("sigma-hat", "--xi", "nan,1", "--quick"), "finite"),
    (("sigma-hat", "--xi", "inf", "--quick"), "finite"),
    (("norm-eval", "--point", "nan,1", "--quick"), "finite"),
    (("sigma-hat", "--xi", "0.5", "--tol", "inf", "--quick"), "tolerance"),
    (("multiplier-sup", "--tol", "inf", "--quick"), "tolerance"),
    (("multiplier-sup", "--tol", "1", "--quick"), "tolerance"),
    (("log-growth", "--tol", "nan", "--quick"), "tolerance"),
    (("log-growth", "--tol", "0", "--quick"), "tolerance"),
])
def test_config_errors_exit_2(capsys, args, fragment):
    code, _, err = run_cli(capsys, *args)
    assert code == 2
    assert "config error" in err
    assert fragment in err


def test_bad_config_file_exits_2(capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"seed": "zebra"}')
    code, _, err = run_cli(capsys, "norm-eval", "--quick", "--config", str(cfg))
    assert code == 2
    assert "seed must be an integer" in err


def test_failures_exit_1(capsys, monkeypatch):
    def stub(ns, cfg, seed, quick):
        return [{"check": "stub", "passed": False}], {}, ["stub check failed"]

    monkeypatch.setitem(cli._HANDLERS, "norm-eval", stub)
    code, out, err = run_cli(capsys, "norm-eval", "--quick")
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    assert doc["failures"] == ["stub check failed"]
    assert "FAIL" in err


def test_csv_output_shape(capsys):
    code, out, _ = run_cli(capsys, "log-growth", "--quick", "--d-list", "1,2",
                           "--budget", "80", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    comments = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    assert comments[0] == "# command=log-growth"
    assert comments[-1].startswith("# timestamp=")
    assert body[0].split(",")[:2] == ["d", "sup_estimate"]
    assert len(body) == 3  # header plus one row per dimension


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "result.json"
    code, out, err = run_cli(capsys, "sigma-hat", "--xi", "0.5", "--quick",
                             "--k-lo", "-2", "--k-hi", "2",
                             "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["command"] == "sigma-hat"
    assert len(doc["rows"]) == 5
    assert "sigma-hat: PASS" in err


def test_json_meta_carries_resolved_parameters(capsys):
    _, out, _ = run_cli(capsys, "multiplier-sup", "--d", "2", "--quick",
                        "--budget", "60")
    doc = json.loads(out)
    assert doc["meta"]["budget"] == 60
    assert doc["rows"][0]["d"] == 2


@pytest.mark.parametrize("values, args", [
    ({"d": 2.7, "quick": True}, ("norm-eval",)),
    ({"d_list": [2.5, 3], "quick": True}, ("osc-corpus",)),
    ({"count": 3.9, "quick": True}, ("osc-corpus", "--d-list", "2")),
    ({"seed": 2.5, "quick": True}, ("norm-eval",)),
    ({"seed": True, "quick": True}, ("norm-eval",)),
    ({"tol": True}, ("sigma-hat", "--xi", "0.5", "--k-lo", "0", "--k-hi", "0")),
    ({"quick": "no"}, ("norm-eval", "--d", "1")),
])
def test_config_values_are_not_coerced(capsys, tmp_path, values, args):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(values))
    code, _, err = run_cli(capsys, *args, "--config", str(cfg))
    assert code == 2
    assert "config error" in err
    assert "must be" in err
