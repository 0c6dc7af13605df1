"""Tests of the ``coarse_phase`` scenario and the bench-layer coarse axis."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.api.workload import Workload
from repro.bench import registry
from repro.bench.coarse_phase import CoarsePhaseScenario
from repro.bench.runner import (
    InvariantViolation,
    point_key,
    run_scenario,
)
from repro.feti.config import DualOperatorApproach


def _shrunken(**overrides):
    """A fast copy of the registered scenario (seconds, not minutes)."""
    defaults = dict(
        base=Workload("heat", 2, (8, 8), 2, n_clusters=4),
        backends=(("serial", None), ("threads2", "threads:2")),
        rounds=1,
        n_applies=2,
        min_modeled_factor_speedup=1.1,
        min_modeled_solve_speedup=1.0,
    )
    defaults.update(overrides)
    return dataclasses.replace(
        registry.get("coarse_phase"), name="coarse_phase_test", **defaults
    )


@pytest.fixture(scope="module")
def record():
    return _shrunken().run_record()


def test_record_shape_and_point_set(record):
    assert record["benchmark"] == "coarse_phase_test"
    keys = [p["key"] for p in record["points"]]
    assert keys == [
        "dense/serial",
        "dense/threads2",
        "hierarchical/serial",
        "hierarchical/threads2",
    ]
    for point in record["points"]:
        assert point["invariants"]["n_lambda"] > 0
        assert point["invariants"]["n_kernel"] == 64
        assert set(point["simulated"]) == {"factor_flops", "solve_flops"}
        assert set(point["wall"]) == {"factor_seconds", "apply_seconds"}
        assert point["wall"]["factor_seconds"] > 0.0
    block = record["coarse_phase"]
    assert block["backends"] == ["serial", "threads2"]
    assert block["min_modeled_factor_speedup"] == 1.1


def test_record_derived_speedups(record):
    derived = record["derived"]
    assert derived["modeled_factor_speedup"] >= 1.1
    assert derived["modeled_solve_speedup"] >= 1.0
    assert "wall_coarse_factor_speedup" in derived
    assert "wall_coarse_apply_speedup[serial]" in derived
    assert "wall_coarse_apply_speedup[threads2]" in derived


def test_modeled_flops_are_deterministic(record):
    again = _shrunken().run_record()
    for p, q in zip(record["points"], again["points"]):
        assert p["simulated"] == q["simulated"]


def test_unreachable_floor_is_an_invariant_violation():
    scenario = _shrunken(min_modeled_factor_speedup=1e6)
    with pytest.raises(InvariantViolation, match="floor"):
        scenario.run_record()


def test_run_scenario_delegates_to_run_record():
    result = run_scenario(_shrunken())
    assert result.record["benchmark"] == "coarse_phase_test"


def test_registered_scenario_is_quick_gated():
    scenario = registry.get("coarse_phase")
    assert isinstance(scenario, CoarsePhaseScenario)
    assert "quick" in scenario.tags
    assert scenario.base.n_clusters == 4
    assert scenario.min_modeled_factor_speedup == 2.0
    assert scenario.min_modeled_solve_speedup == 1.5


def test_multicluster_scenario_sweeps_the_coarse_axis():
    scenario = registry.get("multicluster_heat_2d")
    assert "quick" in scenario.tags
    assert scenario.grid()["coarse"] == ["dense", "hierarchical"]
    assert scenario.axes()["coarse"] == ["dense", "hierarchical"]
    assert scenario.n_points() == 4


def test_point_key_coarse_suffix_preserves_historical_keys():
    base = point_key((4, 4), 4, DualOperatorApproach.EXPLICIT_MKL)
    assert base == "4x4/c4/expl mkl/batched"
    hier = point_key((4, 4), 4, DualOperatorApproach.EXPLICIT_MKL, coarse="hierarchical")
    assert hier == "4x4/c4/expl mkl/batched/hierarchical"
    dense = point_key((4, 4), 4, DualOperatorApproach.EXPLICIT_MKL, coarse="dense")
    assert dense == base


def test_multicluster_record_pairs_coarse_modes():
    result = run_scenario(registry.get("multicluster_heat_2d"))
    record = result.record
    coarse_values = {p["coarse"] for p in record["points"]}
    assert coarse_values == {"dense", "hierarchical"}
    for p in record["points"]:
        assert p["wall"]["coarse_factor_seconds"] > 0.0
    derived = record.get("derived", {})
    assert any(k.startswith("wall_coarse_factor_speedup[") for k in derived)
    assert any(k.startswith("wall_coarse_apply_speedup[") for k in derived)


def test_hierarchical_serial_apply_matches_dense(record):
    # The record's invariant gate already enforced <= 1e-12; double-check
    # the projector directly on the shrunken workload.
    from repro.api.workload import build_problem
    from repro.feti.projector import build_projector

    problem = build_problem(_shrunken().base)
    dense = build_projector(problem, mode="dense")
    hier = build_projector(problem, mode="hierarchical")
    x = np.arange(problem.n_lambda, dtype=float)
    denom = max(float(np.linalg.norm(dense.apply(x))), 1e-300)
    assert float(np.linalg.norm(hier.apply(x) - dense.apply(x))) / denom <= 1e-12
