"""Tests of the scenario runner and its benchmark records."""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass

import numpy as np
import pytest

from repro.bench import registry
from repro.bench.registry import Scenario, Workload
from repro.bench.runner import (
    SCHEMA_VERSION,
    InvariantViolation,
    PointTimeout,
    load_record,
    measure_point,
    point_key,
    record_filename,
    run_scenario,
    write_record,
)
from repro.feti.config import DualOperatorApproach


@pytest.fixture(scope="module")
def smoke_result():
    return run_scenario(registry.get("smoke_heat_2d"))


def test_record_schema_and_environment_stamp(smoke_result):
    record = smoke_result.record
    assert record["schema_version"] == SCHEMA_VERSION
    assert record["benchmark"] == "smoke_heat_2d"
    assert record["scenario"]["physics"] == "heat"
    assert record["scenario"]["dim"] == 2
    assert "quick" in record["scenario"]["tags"]
    env = record["environment"]
    for key in ("git_sha", "python", "numpy", "scipy", "platform", "created_utc"):
        assert key in env, key
    assert env["repro_version"]


def test_record_points_carry_metrics_and_invariants(smoke_result):
    points = smoke_result.record["points"]
    assert len(points) == 2  # two approaches, one workload
    for point in points:
        assert point["invariants"]["n_subdomains"] == 2
        assert point["invariants"]["n_lambda"] > 0
        assert point["simulated"]["preprocessing_seconds"] > 0.0
        assert point["simulated"]["apply_seconds"] > 0.0
        assert point["wall"]["apply_seconds"] > 0.0
        assert point["wall"]["coarse_factor_seconds"] > 0.0
        assert point["wall"]["coarse_apply_seconds"] > 0.0
        # One apply path, one sparse path, one coarse problem: the axes left.
        assert set(point) == {
            "key", "subdomains", "cells", "approach", "execution",
            "precision", "invariants", "simulated", "wall",
        }
    keys = {p["key"] for p in points}
    assert keys == {
        "2x1/c2/impl mkl/batched",
        "2x1/c2/expl mkl/batched",
    }


def test_warm_up_applies_stay_out_of_the_simulated_mean():
    """``measure_point`` warms up untimed; the simulated mean spans n_applies."""
    scenario = registry.get("smoke_heat_2d")
    one = measure_point(scenario.spec_with(), DualOperatorApproach.EXPLICIT_MKL, 1)
    three = measure_point(scenario.spec_with(), DualOperatorApproach.EXPLICIT_MKL, 3)
    # Every apply of a round replays one plan: the one-apply mean *is* the plan,
    # the three-apply mean is the left-to-right sum of three of them.
    plan = one.sim_apply_seconds
    assert three.sim_apply_seconds == (0.0 + plan + plan + plan) / 3


def test_sweep_result_is_queryable(smoke_result):
    sweep = smoke_result.sweep
    recs = sweep.filter(approach=DualOperatorApproach.EXPLICIT_MKL)
    assert len(recs) == 1
    assert recs[0]["sim_apply_seconds"] > 0.0
    assert sweep.column("n_lambda") == [6, 6]


def test_record_is_json_serializable_and_roundtrips(smoke_result, tmp_path):
    path = write_record(smoke_result.record, tmp_path)
    assert path.name == "BENCH_smoke_heat_2d.json"
    assert load_record(path) == json.loads(json.dumps(smoke_result.record))


def test_record_filename_sanitizes():
    assert record_filename("a b/c") == "BENCH_a_b_c.json"


def test_point_key_format():
    """The ``/batched`` stem is fixed: committed baselines still pair by key."""
    key = point_key((4, 4), 7, DualOperatorApproach.EXPLICIT_HYBRID)
    assert key == "4x4/c7/expl hybrid/batched"


def test_point_key_execution_suffix_preserves_historical_keys():
    from repro.runtime.executor import ExecutionSpec

    base = point_key((8, 8), 8, DualOperatorApproach.EXPLICIT_MKL)
    assert base == "8x8/c8/expl mkl/batched"
    # The serial execution spec leaves the key unchanged (old records pair).
    serial = point_key((8, 8), 8, DualOperatorApproach.EXPLICIT_MKL, ExecutionSpec())
    assert serial == base
    sharded = point_key(
        (8, 8), 8, DualOperatorApproach.EXPLICIT_MKL, ExecutionSpec("threads", 4)
    )
    assert sharded == "8x8/c8/expl mkl/batched/threads4"


def test_point_key_precision_suffix_preserves_historical_keys():
    base = point_key((4, 4), 7, DualOperatorApproach.EXPLICIT_MKL)
    fp64 = point_key((4, 4), 7, DualOperatorApproach.EXPLICIT_MKL, precision="fp64")
    assert fp64 == base  # the default policy leaves old keys unchanged
    fp32 = point_key((4, 4), 7, DualOperatorApproach.EXPLICIT_MKL, precision="fp32_ir")
    assert fp32 == base + "/fp32_ir"


def test_measure_point_is_cached_and_deterministic():
    scenario = registry.get("smoke_heat_2d")
    spec = scenario.spec_with()
    a = measure_point(spec, DualOperatorApproach.IMPLICIT_MKL, n_applies=scenario.n_applies)
    b = measure_point(spec, DualOperatorApproach.IMPLICIT_MKL, n_applies=scenario.n_applies)
    assert a is b  # lru_cache shares points across scenarios and tests
    assert np.all(np.isfinite(a.q))


def test_derived_speedups_need_a_swept_axis_to_pair(smoke_result):
    """No execution sweep, nothing to pair: no ``derived`` section (the
    paired half is ``TestExecutionAxis.test_derived_parallel_speedup_is_emitted``)."""
    assert "derived" not in smoke_result.record


def test_expected_invariant_violation_raises():
    bad = Scenario(
        name="tmp_bad_expected",
        description="declares the wrong subdomain count",
        base=Workload("heat", 2, (2, 1), 2),
        n_applies=1,
        expected={"n_subdomains": 99},
    )
    with pytest.raises(InvariantViolation, match="n_subdomains=2"):
        run_scenario(bad)
    # the checks can be disabled explicitly
    record = run_scenario(bad, check_invariants=False).record
    assert record["points"]


def test_unknown_expected_invariant_key_raises():
    bad = Scenario(
        name="tmp_bad_key",
        description="declares an unknown invariant",
        base=Workload("heat", 2, (2, 1), 2),
        n_applies=1,
        expected={"n_gpus": 1},
    )
    with pytest.raises(InvariantViolation, match="unknown invariant"):
        run_scenario(bad)


class TestExecutionAxis:
    """The runtime execution sweep of the bench layer (PR 5)."""

    @pytest.fixture(scope="class")
    def scaling_result(self):
        from repro.runtime.executor import ExecutionSpec

        scenario = Scenario(
            name="tiny_parallel",
            description="execution-axis test scenario",
            base=Workload("heat", 2, (2, 2), 3),
            approaches=(DualOperatorApproach.EXPLICIT_MKL,),
            execution=(None, ExecutionSpec("threads", 2)),
            n_applies=1,
        )
        return run_scenario(scenario)

    def test_points_carry_the_execution_stamp(self, scaling_result):
        points = {p["key"]: p for p in scaling_result.record["points"]}
        assert set(points) == {
            "2x2/c3/expl mkl/batched",
            "2x2/c3/expl mkl/batched/threads2",
        }
        assert points["2x2/c3/expl mkl/batched"]["execution"] is None
        assert points["2x2/c3/expl mkl/batched/threads2"]["execution"] == {
            "backend": "threads",
            "workers": 2,
        }

    def test_derived_parallel_speedup_is_emitted(self, scaling_result):
        derived = scaling_result.record["derived"]
        key = "wall_preprocessing_speedup[2x2/c3/expl mkl/threads2]"
        assert key in derived
        assert derived[key] > 0.0

    def test_simulated_metrics_are_identical_across_executors(self, scaling_result):
        points = {p["key"]: p for p in scaling_result.record["points"]}
        serial = points["2x2/c3/expl mkl/batched"]["simulated"]
        sharded = points["2x2/c3/expl mkl/batched/threads2"]["simulated"]
        assert serial == sharded

    def test_operator_consistency_covers_execution_variants(self):
        # The grid's check pairs every execution variant of a workload
        # against one reference; a divergence would have raised in the
        # fixture above.  Exercise the check directly with a forced
        # divergence to prove the execution axis participates.
        from repro.runtime.executor import ExecutionSpec

        scenario = registry.get("smoke_heat_2d")
        q = np.ones(3)

        def row(execution, q):
            labels = {
                "subdomains": (2, 1), "cells": 2,
                "approach": DualOperatorApproach.IMPLICIT_MKL,
                "execution": execution, "precision": "fp64",
            }
            return {"key": point_key(**labels), **labels, "q": q}

        rows = [row(None, q), row(ExecutionSpec("threads", 2), 2.0 * q)]
        with pytest.raises(InvariantViolation, match="threads2"):
            scenario.check(rows)


@dataclass
class _NappingScenario(Scenario):
    """A scenario with its own units, whose one unit blocks until released."""

    def units(self):
        return {"nap": None}

    def measure(self, unit):
        _RELEASE.wait(30.0)
        return []


_RELEASE = threading.Event()


class TestPointTimeout:
    def test_hung_point_raises_point_timeout(self, monkeypatch):
        def hang(*args, **kwargs):
            _RELEASE.wait(30.0)

        monkeypatch.setattr(registry, "measure_point", hang)
        scenario = registry.get("smoke_heat_2d")
        _RELEASE.clear()
        try:
            with pytest.raises(PointTimeout, match="timeout"):
                run_scenario(scenario, check_invariants=False, point_timeout=0.2)
        finally:
            _RELEASE.set()

    def test_own_units_of_a_scenario_run_under_the_budget(self):
        scenario = _NappingScenario(
            name="napping", description="sleeps", base=Workload("heat", 2, (2, 1), 2)
        )
        _RELEASE.clear()
        try:
            with pytest.raises(PointTimeout, match="napping:nap"):
                run_scenario(scenario, point_timeout=0.2)
        finally:
            _RELEASE.set()

    def test_fast_points_pass_under_a_budget(self):
        scenario = registry.get("smoke_heat_2d")
        result = run_scenario(scenario, point_timeout=60.0)
        assert result.record["points"]
