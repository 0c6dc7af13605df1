"""Tests of the shard plan (cluster-respecting worker partitions)."""

from __future__ import annotations

import pytest

from repro.runtime.shard import ShardPlan


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
    assert len(plan.shards) == 2
    assert all(s.size == 1 for s in plan.shards)


def test_one_worker_is_one_shard_per_cluster():
    plan = _plan([(0, [0, 1, 2]), (1, [3, 4])], workers=1)
    assert len(plan.shards) == 2
    assert [s.subdomain_indices for s in plan.shards] == [(0, 1, 2), (3, 4)]


def test_shards_are_contiguous_in_cluster_order():
    plan = _plan([(0, [10, 11, 12, 13]), (1, [4, 5])], workers=2)
    assert [s.subdomain_indices for s in plan.shards] == [(10, 11), (12, 13), (4,), (5,)]
    assert [s.cluster_id for s in plan.shards] == [0, 0, 1, 1]


def test_rejects_non_positive_worker_count():
    with pytest.raises(ValueError, match="workers"):
        _plan([(0, [0])], workers=0)



def test_describe_reports_the_layout():
    plan = _plan([(0, [0, 1, 2]), (1, [3, 4])], workers=2)
    assert plan.describe() == "4 shard(s) over 2 worker(s) (cluster 0: [2, 1], cluster 1: [1, 1])"
