"""Tests of the ``precision_phase`` scenario and the bench precision axis."""

from __future__ import annotations

import dataclasses

import pytest

from repro.api.workload import Workload
from repro.bench import registry
from repro.bench.precision_phase import PrecisionPhaseScenario
from repro.bench.runner import InvariantViolation, run_scenario
from repro.feti.config import DualOperatorApproach


def _shrunken(**overrides):
    """A fast copy of the registered scenario (one approach, tiny mesh)."""
    defaults = dict(
        base=Workload("heat", 2, (2, 2), 4),
        approaches=(DualOperatorApproach("expl mkl"),),
        expected={"n_subdomains": 4},
    )
    defaults.update(overrides)
    return dataclasses.replace(
        registry.get("precision_phase"), name="precision_phase_test", **defaults
    )


@pytest.fixture(scope="module")
def record():
    return run_scenario(_shrunken()).record


def _point(key, true_residual=1e-10, factor_bytes=200):
    """A synthetic measured point carrying just what the gates read."""
    return {
        "key": key,
        "wall": {"true_residual": true_residual},
        "simulated": {"factor_bytes": factor_bytes, "resident_bytes": factor_bytes},
    }


def test_record_shape_and_point_set(record):
    assert record["benchmark"] == "precision_phase_test"
    keys = [p["key"] for p in record["points"]]
    assert keys == ["expl mkl/fp64", "expl mkl/fp32"]
    for point in record["points"]:
        assert point["invariants"]["n_lambda"] > 0
        assert set(point["simulated"]) == {
            "factor_bytes", "pack_bytes", "arena_bytes", "resident_bytes",
        }
        assert set(point["wall"]) == {
            "solve_seconds", "true_residual", "iterations", "converged",
        }
        assert point["wall"]["converged"] == 1.0
    assert record["scenario"]["min_factor_bytes_reduction"] == pytest.approx(1.7)


def test_fp32_halves_factor_bytes_exactly(record):
    by_key = {p["key"]: p for p in record["points"]}
    fp64 = by_key["expl mkl/fp64"]["simulated"]["factor_bytes"]
    fp32 = by_key["expl mkl/fp32"]["simulated"]["factor_bytes"]
    assert fp64 == 2 * fp32
    assert record["derived"]["factor_bytes_reduction[expl mkl]"] == pytest.approx(2.0)
    assert record["derived"]["resident_bytes_reduction[expl mkl]"] > 1.7


def test_fp32_point_keeps_fp64_iterations_above_the_fp64_residual(record):
    """The measured rows: fp32 keeps fp64's iteration count, not its residual."""
    by_key = {p["key"]: p["wall"] for p in record["points"]}
    fp64, fp32 = by_key["expl mkl/fp64"], by_key["expl mkl/fp32"]
    assert fp32["iterations"] == fp64["iterations"]
    assert fp64["true_residual"] < fp32["true_residual"]


def test_bytes_gate_flags_a_storage_policy_regression():
    rows = [
        _point("expl mkl/fp64", factor_bytes=200),
        _point("expl mkl/fp32", factor_bytes=200),  # demotion stopped working
    ]
    with pytest.raises(InvariantViolation, match="factor bytes"):
        _shrunken().check(rows)


def test_gates_skip_precisions_the_axis_does_not_measure():
    """A ``--precision fp32`` run has no fp64 reference to gate against."""
    scenario = _shrunken(precision=("fp32",))
    assert list(scenario.units()) == ["expl mkl"]
    scenario.check([_point("expl mkl/fp32", factor_bytes=200)])
    assert scenario.derived([_point("expl mkl/fp32", factor_bytes=200)]) == {}


def test_traced_run_puts_its_units_in_the_trace_sink():
    sink = {}
    run_scenario(_shrunken(precision=("fp64",)), trace_sink=sink)
    assert list(sink) == ["precision_phase_test:expl mkl"]
    assert len(sink["precision_phase_test:expl mkl"]) > 0


def test_registered_scenario_is_quick_gated():
    scenario = registry.get("precision_phase")
    assert isinstance(scenario, PrecisionPhaseScenario)
    assert {"quick", "memory", "precision"} <= scenario.tags
    assert scenario.precision == ("fp64", "fp32")
    assert scenario.axes()["precision"] == ["fp64", "fp32"]
    assert scenario.n_points() == 6
    assert list(scenario.units()) == ["expl mkl", "impl cholmod", "expl modern"]
