import ast
import inspect
import json

import pytest

from curvemax import cli
from curvemax.acceptance import CriterionResult


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
    # the certified bound would round coarsely there and report PASS
    (("sigma-hat", "--xi", "0,5e-324", "--k-lo", "540", "--k-hi", "540"),
     "xi_2 = 4.94e-324 is subnormal"),
    # an empty list crashed log-growth on an empty table and let criterion 5
    # pass with no polynomial checked; a dict stands for a config file
    (("log-growth", "--config", {"d_list": [], "quick": True}),
     "at least one entry"),
    (("osc-corpus", "--config", {"d_list": [], "quick": True}),
     "at least one entry"),
    (("kernel-verify", "--samples", "999", "--quick"), "samples must be"),
    (("multiplier-sup", "--budget", "3", "--quick"), "budget must be"),
    (("osc-corpus", "--count", "0", "--quick"), "count must be"),
    (("maxop-check", "--d", "3", "--quick"), "supports --d 1 or 2"),
    (("sigma-hat", "--xi", "0,0"), "must be nonzero"),
    (("sigma-hat", "--xi", "0.5", "--k-lo", "2", "--k-hi", "1"),
     "k range [2, 1] is empty"),
    (("norm-eval", "--d", "3", "--point", "1,2", "--quick"),
     "--d 3 disagrees with --point length 2"),
    # None stands for a config path where no file is, bytes for raw contents
    (("norm-eval", "--quick", "--config", None), "[Errno 2]"),
    (("norm-eval", "--quick", "--config", b'{"seed": 1'), "config file"),
    (("norm-eval", "--quick", "--config", [1, 2]),
     "config root must be a JSON object"),
])
def test_config_errors_exit_2(capsys, tmp_path, monkeypatch, args, fragment):
    def no_criterion(*args, **kwargs):
        raise AssertionError("a criterion ran")

    monkeypatch.setattr(cli, "run", no_criterion)
    monkeypatch.setattr(cli, "run_all", no_criterion)
    args = list(args)
    for i, arg in enumerate(args):
        if not isinstance(arg, str):
            cfg = tmp_path / "run.json"
            if arg is not None:
                cfg.write_bytes(arg if isinstance(arg, bytes)
                                else json.dumps(arg).encode())
            args[i] = str(cfg)
    code, out, err = run_cli(capsys, *args)
    assert code == 2 and out == ""
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

    monkeypatch.setitem(cli._COMMANDS, "norm-eval",
                        (stub, *cli._COMMANDS["norm-eval"][1:]))
    code, out, err = run_cli(capsys, "norm-eval", "--quick")
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    assert doc["failures"] == ["stub check failed"]
    assert "FAIL" in err


def test_kernel_verify_runs_criteria_2_to_4(capsys):
    code, out, err = run_cli(capsys, "kernel-verify", "--quick", "--d", "1",
                             "--samples", "1000")
    assert code == 0
    doc = json.loads(out)
    assert [r["criterion"] for r in doc["rows"]] == [2, 3, 4]
    assert all(r["passed"] for r in doc["rows"])
    assert doc["meta"] == {"d": 1, "samples": 1000}
    assert "kernel-verify: PASS" in err


def test_accept_reports_each_criterion_by_name(capsys, monkeypatch):
    results = [CriterionResult(1, "first", True, {"x": 1.0}, 0.0),
               CriterionResult(2, "second", False, {"x": 2.0}, 0.0)]
    monkeypatch.setattr(cli, "run_all",
                        lambda seed, quick: results if quick else None)
    code, out, err = run_cli(capsys, "accept", "--quick")
    assert code == 1
    doc = json.loads(out)
    assert [(r["criterion"], r["name"], r["passed"]) for r in doc["rows"]] \
        == [(1, "first", True), (2, "second", False)]
    assert doc["meta"] == {"quick": True}
    assert doc["failures"] == ["criterion 2 (second) failed; see its "
                               "details row"]
    assert "accept: FAIL" in err


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


def test_sigma_hat_bound_at_huge_coordinates(capsys):
    # 2 pi |xi_1| overflowed to inf, and the bound read 1.0 with PASS
    code, out, _ = run_cli(capsys, "sigma-hat", "--xi", "1e308,1",
                           "--k-lo", "5", "--k-hi", "5")
    assert code == 0
    assert json.loads(out)["rows"][0]["certified_bound"] < 1.0


@pytest.mark.parametrize("xi, k", [("1,1", "-3000"), ("1e-300", "-1100"),
                                   ("1,1", "-100000000000000000000")])
def test_sigma_hat_row_where_the_envelope_is_unbounded(capsys, xi, k):
    # this far below k = 0 the decay terms leave double range; the row must
    # still be emitted, as strict JSON, with the trivial bound (k = -10^20,
    # past the 64-bit integers, ended in an OverflowError traceback)
    code, out, _ = run_cli(capsys, "sigma-hat", "--xi", xi,
                           "--k-lo", k, "--k-hi", k)
    assert code == 0

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    (row,) = json.loads(out, parse_constant=reject)["rows"]
    assert row["certified_bound"] == 1.0


def test_sigma_hat_values_where_the_engine_reaches(capsys):
    # a gate of its own in the CLI left these rows with the bound alone
    code, out, _ = run_cli(capsys, "sigma-hat", "--xi", "1,1",
                           "--k-lo", "9", "--k-hi", "12")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["k"] for row in rows] == [9, 10, 11, 12]
    for row in rows:
        assert row["abs"] is not None and row["passed"]
        assert row["abs"] <= row["certified_bound"] + row["quad_tol"]
    assert rows[0]["abs"] == pytest.approx(6.07e-7, rel=1e-2)
    assert rows[-1]["abs"] == pytest.approx(9.49e-9, rel=1e-2)


def test_sigma_hat_range_stays_within_double_range(capsys):
    # two million scales ran on with no output and no error
    code, out, err = run_cli(capsys, "sigma-hat", "--xi", "1,1",
                             "--k-lo", "-1000000", "--k-hi", "1000000")
    assert code == 2 and out == ""
    assert f"spans more than {cli.MAX_SCALES} scales" in err
    code, out, _ = run_cli(capsys, "sigma-hat", "--xi", "1,1",
                           "--k-lo", "-2098", "--k-hi", "2045")
    assert code == 0
    assert len(json.loads(out)["rows"]) == cli.MAX_SCALES == 4144


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


@pytest.mark.parametrize("fmt", [False, "", 0])
def test_falsy_config_format_exits_2(capsys, tmp_path, fmt):
    # a falsy format fell back to the default and the run went ahead
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"format": fmt, "quick": True}))
    code, out, err = run_cli(capsys, "norm-eval", "--d", "1",
                             "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert f"format must be csv or json, got {fmt!r}" in err


# a valid quick invocation of each subcommand, and a flag it does not read
UNREAD = {
    "norm-eval": ((), "--budget", "80"),
    "osc-corpus": ((), "--budget", "80"),
    "sigma-hat": (("--xi", "0.5"), "--budget", "80"),
    "kernel-verify": ((), "--budget", "80"),
    "multiplier-sup": ((), "--d-list", "16"),
    "log-growth": ((), "--d", "8"),
    "maxop-check": ((), "--budget", "80"),
    "accept": ((), "--budget", "80"),
}


@pytest.mark.parametrize("command", cli._COMMANDS)
def test_unread_flag_and_config_key_exit_2(capsys, tmp_path, command):
    # both were dropped silently, and the run ended in PASS
    base, flag, value = UNREAD[command]
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *base, "--quick", flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    key = flag[2:].replace("-", "_")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: value}))
    code, _, err = run_cli(capsys, command, *base, "--quick",
                           "--config", str(cfg))
    assert code == 2
    assert f"{command} reads no config key {key!r}" in err


@pytest.mark.parametrize("args", [
    ("log-growth", "--d", "8"),      # was --d-list 8
    ("log-growth", "--budg", "8"),   # was --budget 8
    ("log-growth", "--d-l", "1,2"),  # was --d-list 1,2
    ("accept", "--d", "99"),
])
def test_abbreviations_and_foreign_flags_exit_2(capsys, args):
    with pytest.raises(SystemExit) as exc:
        cli.main([*args, "--quick"])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(args[1:]) in \
        capsys.readouterr().err


CLI_TREE = ast.parse(inspect.getsource(cli))
CLI_FUNCS = {node.name: node for node in CLI_TREE.body
             if isinstance(node, ast.FunctionDef)}


def _reached_calls(name):
    """Calls by bare name that the function makes, itself or through the
    module's functions it calls."""
    calls = []
    for node in ast.walk(CLI_FUNCS[name]):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            calls.append(node)
            if node.func.id in CLI_FUNCS:
                calls += _reached_calls(node.func.id)
    return calls


@pytest.mark.parametrize("command", cli._COMMANDS)
def test_each_handler_reads_exactly_its_settings(command):
    # a declared setting that no handler reads would be a flag that does nothing
    handler, _, settings = cli._COMMANDS[command]
    keys = {call.args[2].value for call in _reached_calls(handler.__name__)
            if call.func.id == "_resolve"}
    assert keys == set(settings)


@pytest.mark.parametrize("command",
                         [c for c in cli._COMMANDS if c != "sigma-hat"])
def test_each_experiment_handler_runs_its_criterion(command):
    # log-growth and multiplier-sup reran criterion 7's searches with verdicts
    # of their own; run_all runs every criterion through run
    handler = cli._COMMANDS[command][0]
    called = {call.func.id for call in _reached_calls(handler.__name__)}
    assert called & {"run", "run_all"}
    assert not [node for node in ast.walk(CLI_TREE)
                if isinstance(node, ast.ImportFrom)
                and node.module in ("multiplier", "curvemax.multiplier")]
