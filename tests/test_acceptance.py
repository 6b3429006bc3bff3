"""Acceptance gate: every numbered criterion at its stated settings.

The battery runs once per session (several minutes of quadrature, search,
and Monte Carlo); each test then asserts one criterion's verdict so the
report shows one pass/fail line per criterion.
"""

import json

import pytest

from curvemax import acceptance, oscillatory
from curvemax.acceptance import CRITERIA, jsonable, run_all


@pytest.fixture(scope="module")
def battery():
    results = run_all(seed=0, quick=False)
    return {r.number: r for r in results}


@pytest.mark.parametrize("number, name",
                         [(c.number, c.name) for c in CRITERIA],
                         ids=[f"{c.number}-{c.name}" for c in CRITERIA])
def test_criterion(battery, number, name):
    result = battery[number]
    assert result.name == name
    assert result.passed, (
        f"criterion {number} ({name}) failed:\n"
        + json.dumps(jsonable(result.details), indent=2, sort_keys=True))


def test_battery_is_complete(battery):
    assert sorted(battery) == list(range(1, 10))


def test_envelope_gate_catches_an_inflated_nu_hat(monkeypatch):
    # the base-case envelope constant is certified <= 1 + 3 pi / 2; a nu_hat
    # three times too large (about 6.7 at the quick preset) must fail it
    true_nu_hat = acceptance.nu_hat
    monkeypatch.setattr(acceptance, "nu_hat",
                        lambda *args, **kwargs: 3.0 * true_nu_hat(*args, **kwargs))
    res = acceptance.run("multiplier-profile", quick=True, n_oracle=1,
                         dims=(1,), per_dim=1)
    env = res.details["base_case_envelope_constant"]
    assert env["value"] > env["limit"]
    assert not res.passed


def test_sublevel_oracle_row_catches_a_shrunk_measure(monkeypatch):
    # criterion 5 compares the root-based measure with a brute 400,000-cell
    # grid; a measure 10% too small must leave that row above its 1e-4 gate
    true_measure = oscillatory.sublevel_measure
    monkeypatch.setattr(oscillatory, "sublevel_measure",
                        lambda *args, **kwargs: 0.9 * true_measure(*args, **kwargs))
    res = acceptance.run("oscillatory-bounds", quick=True)
    row = res.details["sublevel_vs_root_oracle_max_err"]
    assert row["value"] > row["tol"]
    assert not res.passed


EMPTY_GATES = [
    ("norm-axioms", {"dims": ()}, "dims"),
    ("norm-axioms", {"trials": 0}, "trials"),
    ("norm-axioms", {"polar_grid": 0}, "polar_grid"),
    ("norm-axioms", {"polar_grid": 1}, "polar_grid"),
    ("closed-form-oracles", {"n_freq": 0}, "n_freq"),
    ("closed-form-oracles", {"n_pts": 0}, "n_pts"),
    ("oscillatory-bounds", {"count": 0}, "count"),
    ("oscillatory-bounds", {"dims": ()}, "dims"),
    ("oscillatory-bounds", {"oracle_count": 0}, "oracle_count"),
    ("maxop-reductions", {"dims": ()}, "dims"),
    ("kernel-certification", {"gram_dims": (), "cf_dims": ()}, "gram_dims"),
    ("kernel-certification", {"cf_dims": ()}, "cf_dims"),
    ("kernel-certification", {"gram_sets": 0}, "gram_sets"),
    ("kernel-certification", {"cf_freqs": 0}, "cf_freqs"),
    ("kernel-certification", {"cf_samples": 0}, "cf_samples"),
    ("kernel-certification", {"cf_samples": 1}, "cf_samples"),
    ("kernel-certification", {"semigroup_samples": 0}, "semigroup_samples"),
    ("kernel-certification", {"semigroup_samples": 1}, "semigroup_samples"),
    ("multiplier-profile", {"n_oracle": 0, "dims": (), "n_env": 0},
     "n_oracle"),
    ("multiplier-profile", {"dims": ()}, "dims"),
    ("multiplier-profile", {"per_dim": 0}, "per_dim"),
    ("multiplier-profile", {"n_env": 0}, "n_env"),
    ("log-growth", {"d_list": ()}, "d_list"),
    ("log-growth", {"ind_dims": ()}, "ind_dims"),
    ("log-growth", {"per_dim": 0}, "per_dim"),
    ("log-growth", {"ind_dims": (), "per_dim": -1}, "per_dim"),
]


@pytest.mark.parametrize(
    "name, overrides, param", EMPTY_GATES,
    ids=[name + ":" + ",".join(f"{k}={v}" for k, v in overrides.items())
         for name, overrides, _ in EMPTY_GATES])
def test_gate_that_would_check_nothing_is_rejected(name, overrides, param):
    # each of these passed with nothing checked (an empty d_list ended in
    # IndexError, and no Gram set left gram_min_eigenvalue at inf) or ended in
    # an error that did not name it (polar_grid = 1 divided by zero, one
    # semigroup draw reported a zero standard error)
    with pytest.raises(ValueError, match=rf"\b{param} = "):
        acceptance.run(name, seed=0, quick=True, **overrides)


@pytest.mark.parametrize("name, overrides", [
    ("log-growth", {"d_list": (0,)}),
    ("log-growth", {"ind_dims": (0,)}),
    ("multiplier-profile", {"dims": (0,)}),
])
def test_dimension_outside_the_cap_is_rejected(name, overrides):
    # each drew empty directions forever in norms._annulus_point
    with pytest.raises(ValueError, match=r"\[1, 64\], got 0$"):
        acceptance.run(name, seed=0, quick=True, **overrides)
