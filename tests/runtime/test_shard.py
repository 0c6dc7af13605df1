"""Tests of the shard plan (cluster-respecting worker partitions)."""

from __future__ import annotations

import pytest

from repro.api.workload import Workload, build_problem
from repro.cluster.topology import Machine, MachineConfig
from repro.runtime.shard import Shard, ShardPlan


def _plan(clusters, workers):
    return ShardPlan.for_clusters(clusters, workers)


def test_every_subdomain_is_covered_exactly_once():
    plan = _plan([(0, list(range(10))), (1, list(range(10, 16)))], workers=3)
    covered = [i for s in plan.shards for i in s.subdomain_indices]
    assert sorted(covered) == list(range(16))


def test_shards_never_span_clusters():
    plan = _plan([(0, [0, 1, 2]), (1, [3, 4, 5])], workers=2)
    for shard in plan.shards:
        expected = {0, 1, 2} if shard.cluster_id == 0 else {3, 4, 5}
        assert set(shard.subdomain_indices) <= expected


def test_shard_sizes_are_balanced():
    plan = _plan([(0, list(range(10)))], workers=3)
    sizes = sorted(s.size for s in plan.shards)
    assert sizes == [3, 3, 4]


def test_more_workers_than_subdomains_yields_singleton_shards():
    plan = _plan([(0, [0, 1])], workers=8)
    assert plan.n_shards == 2
    assert all(s.size == 1 for s in plan.shards)


def test_one_worker_is_one_shard_per_cluster():
    plan = _plan([(0, [0, 1, 2]), (1, [3, 4])], workers=1)
    assert plan.n_shards == 2
    assert [s.subdomain_indices for s in plan.shards] == [(0, 1, 2), (3, 4)]


def test_positions_are_cluster_local_and_contiguous():
    plan = _plan([(0, [10, 11, 12, 13])], workers=2)
    assert [s.positions for s in plan.shards] == [(0, 1), (2, 3)]


def test_rejects_non_positive_worker_count():
    with pytest.raises(ValueError, match="workers"):
        _plan([(0, [0])], workers=0)


def test_for_problem_uses_the_machine_topology():
    problem = build_problem(Workload("heat", 2, (2, 2), 3, n_clusters=2))
    machine = Machine.for_decomposition(
        problem.decomposition, MachineConfig(threads_per_cluster=2, streams_per_cluster=2)
    )
    plan = ShardPlan.for_problem(problem, machine, workers=2)
    assert {s.cluster_id for s in plan.shards} == {0, 1}
    covered = sorted(i for s in plan.shards for i in s.subdomain_indices)
    assert covered == [s.index for s in problem.subdomains]
    assert "2 worker(s)" in plan.describe()


def test_shards_of_cluster_orders_by_position():
    plan = _plan([(0, [0, 1, 2, 3]), (1, [4, 5])], workers=2)
    shards = plan.shards_of_cluster(0)
    assert [s.positions[0] for s in shards] == [0, 2]
    assert all(isinstance(s, Shard) for s in shards)
