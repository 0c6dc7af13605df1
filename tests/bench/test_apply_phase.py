"""Tests of the ``apply_phase`` scenario (sequential vs stacked applies)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.api.workload import Workload
from repro.bench import registry
from repro.bench.apply_phase import ApplyPhaseScenario
from repro.bench.runner import InvariantViolation, run_scenario


def _shrunken(**overrides):
    """A fast copy of the registered scenario (tiny mesh)."""
    defaults = dict(
        base=Workload("heat", 2, (2, 2), 3),
        n_rhs=2,
        expected={"n_subdomains": 4},
    )
    defaults.update(overrides)
    return dataclasses.replace(
        registry.get("apply_phase"), name="apply_phase_test", **defaults
    )


def _stacked(backend, rel_error=0.0):
    """A synthetic measured stacked point carrying what the gate reads."""
    return {"key": f"{backend}/stacked", "stacked_rel_error": rel_error}


@pytest.fixture(scope="module")
def result():
    return run_scenario(_shrunken())


def test_one_unit_per_execution_entry_two_points_each(result):
    keys = [p["key"] for p in result.record["points"]]
    assert keys == ["serial/sequential", "serial/stacked"]
    for point in result.record["points"]:
        assert set(point) == {"key", "invariants", "simulated", "wall"}
        assert point["invariants"]["n_rhs"] == 2
        assert point["simulated"]["apply_seconds"] > 0.0
        assert point["wall"]["per_column_seconds"] == pytest.approx(
            point["wall"]["wall_seconds"] / 2
        )
    assert set(result.record["derived"]) == {"wall_apply_stacked_speedup[serial]"}
    assert result.record["scenario"]["n_rhs"] == 2


def test_stacked_applies_match_sequential_ones(result):
    stacked = [r for r in result.sweep.records if r["key"].endswith("/stacked")]
    assert len(stacked) == 1
    for row in stacked:
        assert row["stacked_rel_error"] <= 1e-12


def test_rel_error_gate_flags_a_diverging_stacked_apply():
    with pytest.raises(InvariantViolation, match="contract"):
        _shrunken().check([{"key": "serial/sequential"}, _stacked("serial", rel_error=1e-9)])


def test_registered_scenario_is_one_serial_unit():
    scenario = registry.get("apply_phase")
    assert isinstance(scenario, ApplyPhaseScenario)
    assert list(scenario.units()) == ["serial"]
    assert scenario.n_points() == 1
