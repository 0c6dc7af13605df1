"""Tests of the benchmark scenario registry."""

from __future__ import annotations

import pytest

from repro.bench import registry
from repro.bench.registry import Scenario, Workload
from repro.feti.config import DualOperatorApproach
from repro.feti.operators import replay_for
from repro.feti.operators.replay import (
    CpuExplicitReplay,
    CpuImplicitReplay,
    GpuExplicitReplay,
    GpuImplicitReplay,
    HybridReplay,
)
from repro.feti.problem import FetiProblem


def test_registry_enumerates_enough_scenarios():
    names = registry.names()
    assert len(names) >= 8
    assert len(set(names)) == len(names)


def test_registry_covers_both_physics_and_dimensionalities():
    selected = registry.scenarios()
    assert {s.base.physics for s in selected} == {"heat", "elasticity"}
    assert {s.base.dim for s in selected} == {2, 3}


def test_quick_scenarios_cover_all_five_replays():
    """The CI gate set exercises every cost replay."""
    quick = registry.scenarios("quick")
    assert len(quick) >= 5
    approaches = {a for s in quick for a in s.approaches}
    problem = registry.get("smoke_heat_2d").build_problem()
    replays = {type(replay_for(a, problem)) for a in approaches}
    assert replays == {
        CpuImplicitReplay,
        CpuExplicitReplay,
        GpuImplicitReplay,
        GpuExplicitReplay,
        HybridReplay,
    }


def test_every_scenario_has_a_committed_baseline_and_vice_versa():
    """A scenario cannot be added or deleted without its ``BENCH_*.json``."""
    from pathlib import Path

    import repro.bench  # noqa: F401 - registers the phase/serve scenarios too
    from repro.bench.runner import record_filename

    root = Path(__file__).resolve().parents[2]
    committed = {path.name for path in root.glob("BENCH_*.json")}
    assert committed == {record_filename(name) for name in registry.names()}


def test_all_nine_approaches_registered_somewhere():
    approaches = {a for s in registry.scenarios() for a in s.approaches}
    assert approaches == set(DualOperatorApproach)


def test_get_unknown_scenario_raises_with_known_names():
    with pytest.raises(KeyError, match="unknown scenario.*smoke_heat_2d"):
        registry.get("no_such_scenario")


def test_register_rejects_duplicate_names():
    scenario = registry.get("smoke_heat_2d")
    with pytest.raises(ValueError, match="already registered"):
        registry.register(scenario)


def test_workload_spec_validation():
    with pytest.raises(ValueError, match="unknown physics"):
        Workload("plasma", 2, (2, 2), 4)
    with pytest.raises(ValueError, match="dim=3"):
        Workload("heat", 3, (2, 2), 4)


def test_workload_spec_alias_is_removed():
    """The deprecated PR-2/3 alias was removed in PR 6."""
    import repro.bench
    import repro.bench.registry as reg_module

    with pytest.raises(AttributeError):
        reg_module.WorkloadSpec
    with pytest.raises(AttributeError):
        repro.bench.WorkloadSpec


def test_scenario_grid_axes_and_point_count():
    scenario = registry.get("heat_2d_scaling")
    grid = scenario.grid()
    assert sorted(grid) == [
        "approach", "cells", "execution", "precision", "subdomains",
    ]
    assert sorted(scenario.axes()) == sorted(grid)
    assert grid["subdomains"] == [(2, 2), (4, 4)]
    assert grid["execution"] == [None]
    assert grid["precision"] == ["fp64"]
    assert scenario.n_points() == 4

    sizes = registry.get("heat_2d_sizes")
    assert sizes.grid()["cells"] == [7, 15, 31]
    assert sizes.n_points() == 27


def test_multicluster_scenario_is_the_quick_gated_cluster_workload():
    scenario = registry.get("multicluster_heat_2d")
    assert {"quick", "cluster"} <= scenario.tags
    assert scenario.base.n_clusters == 4
    assert scenario.n_points() == 2  # two approaches, one coarse problem


def test_parallel_scaling_scenario_sweeps_worker_counts():
    from repro.runtime.executor import ExecutionSpec

    scenario = registry.get("parallel_scaling")
    assert scenario.execution[0] is None  # the serial reference point
    parallel = [e for e in scenario.execution if e is not None]
    assert parallel == [ExecutionSpec("threads", 2), ExecutionSpec("threads", 4)]
    assert {"quick", "runtime"} <= scenario.tags
    assert scenario.expected["n_subdomains"] == 64


def test_spec_with_substitutes_grid_axes():
    scenario = registry.get("heat_2d_scaling")
    spec = scenario.spec_with(subdomains=(4, 4), cells=3)
    assert spec.subdomains == (4, 4)
    assert spec.cells == 3
    # the base spec is untouched
    assert scenario.base.subdomains == (2, 2)
    assert scenario.base.cells == 4


def test_build_problem_is_cached_and_consistent():
    scenario = registry.get("smoke_heat_2d")
    problem = scenario.build_problem()
    assert isinstance(problem, FetiProblem)
    assert problem.n_subdomains == scenario.base.n_subdomains == 2
    assert scenario.build_problem() is problem


def test_scenario_tags_include_the_ci_gate_set():
    assert "quick" in registry.all_tags()
    assert registry.names("quick")
    assert registry.names("no_such_tag") == []


def test_scenarios_declare_expected_invariants():
    for scenario in registry.scenarios("quick"):
        assert scenario.expected, scenario.name


def test_custom_scenario_roundtrip():
    scenario = Scenario(
        name="tmp_custom",
        description="ad-hoc",
        base=Workload("heat", 2, (1, 2), 2),
    )
    assert scenario.grid()["subdomains"] == [(1, 2)]
    assert scenario.n_points() == 1
    assert scenario.build_problem().n_subdomains == 2
