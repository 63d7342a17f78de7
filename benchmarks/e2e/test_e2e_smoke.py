"""Smoke test for the end-to-end benchmark: every workload, tiny sizes.

Runs each workload untraced and traced at its ``"smoke"`` size and
checks the benchmark's own contract: the emitted metric names are
exactly BENCHMARK.json's lists with their units, the seeded outputs
(digest and work counters) are identical with and without tracing, and
the per-layer self times add up to the traced wall time.
"""

from __future__ import annotations

import json
import math
import re

import pytest

import run
from workloads import WORKLOADS

SPEC = json.loads(run.BENCHMARK_JSON.read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _spec_rows(key: str) -> dict[str, tuple[str, str]]:
    return {row["name"]: (row["unit"], row["better"]) for row in SPEC[key]}


def _check_metrics(result: dict, expected_units: dict[str, str]) -> None:
    metrics = result["metrics"]
    assert set(metrics) == set(expected_units)
    for name, metric in metrics.items():
        assert NAME.fullmatch(name), name
        assert metric["unit"] == expected_units[name], name
        assert isinstance(metric["value"], (int, float)), name
        assert math.isfinite(metric["value"]), name


def test_benchmark_json_matches_the_command():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert _spec_rows("per_layer") == run.per_layer_spec()
    assert {name: unit for name, (unit, _) in _spec_rows("end_to_end").items()} == (
        run.END_TO_END_UNITS
    )
    for key in ("end_to_end", "per_layer"):
        for row in SPEC[key]:
            assert NAME.fullmatch(row["name"]), row["name"]
    assert SPEC["end_to_end"] and all(
        0 < row["bound"] <= 0.25 for row in SPEC["end_to_end"]
    )


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_smoke_traced_and_untraced(name):
    workload = WORKLOADS[name]
    seed = workload.default_seed
    plain = run.measure(workload, seed, 0.0, trace=False, size="smoke")
    traced = run.measure(workload, seed, 0.0, trace=True, size="smoke")
    for result in (plain, traced):
        assert result["details"]["failures"] == []
        assert result["correct"], result["details"]
        assert result["attempted"] >= 1 and result["failed"] == 0
    _check_metrics(plain, run.END_TO_END_UNITS)
    _check_metrics(
        traced, {name: unit for name, (unit, _) in run.per_layer_spec().items()}
    )
    for metric in plain["metrics"].values():
        assert metric["value"] > 0

    # Tracing must not perturb the simulation.
    assert plain["details"]["digest"] == traced["details"]["digest"]
    assert plain["details"]["counters"] == traced["details"]["counters"]
    for counter, value in plain["details"]["counters"].items():
        assert traced["metrics"][counter]["value"] == value

    # Self times partition the traced wall time (the root spans).
    layers = traced["details"]["layers"]
    total_self_s = sum(row["self_s"] for row in layers.values())
    assert total_self_s == pytest.approx(traced["details"]["root_s"], rel=0.01)
    assert sum(row["share"] for row in layers.values()) == pytest.approx(1.0, rel=0.01)
