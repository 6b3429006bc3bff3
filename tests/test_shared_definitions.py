"""Each CLI subcommand runs its criterion's own definition.

The subcommands bind flags onto the acceptance experiments, so a subcommand
restricted to a criterion's preset reports the criterion's numbers, and every
random stream comes from one table of non-overlapping families.
"""

import json
import math

from curvemax import acceptance, cli
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
