"""Tests of the pattern-keyed session pool."""

import numpy as np
import pytest

from repro.api import Workload
from repro.runtime.executor import ExecutionSpec
from repro.serve.pool import SessionPool

HEAT = Workload.from_preset("heat-2d-quick")
ELASTICITY = Workload.from_preset("elasticity-2d-quick")


def test_same_pattern_workloads_share_one_session():
    harder = Workload.from_dict({**HEAT.to_dict(), "material": {"conductivity": 9.0}})
    with SessionPool(max_sessions=4) as pool:
        first = pool.entry_for(HEAT)
        second = pool.entry_for(harder)
        assert first is second
        assert len(pool) == 1

        first.solve(HEAT, None, None)
        second.solve(harder, None, None)
        stats = first.session.cache_stats()
        # Two different workloads, one sparsity pattern: exactly one
        # symbolic analysis, the second build is a pattern-cache hit.
        assert stats["symbolic_analyses"] == 1
        assert stats["pattern_hits"] >= 1
        assert stats["solves"] == 2


def test_different_patterns_get_different_sessions():
    with SessionPool(max_sessions=4) as pool:
        assert pool.entry_for(HEAT) is not pool.entry_for(ELASTICITY)
        assert len(pool) == 2


def test_lru_eviction_closes_the_evicted_session():
    coarse = Workload.from_dict({**HEAT.to_dict(), "cells": HEAT.cells + 1})
    with SessionPool(max_sessions=2) as pool:
        pool.entry_for(HEAT)
        pool.entry_for(ELASTICITY)
        pool.entry_for(HEAT)  # refresh heat so elasticity is the LRU
        pool.entry_for(coarse)  # third pattern: evicts elasticity
        stats = pool.stats()
        assert stats["evictions"] == 1
        assert len(pool) == 2
        keys = {entry["pattern"][0] for entry in stats["patterns"]}
        assert keys == {"heat"}


def test_pool_forces_the_serial_backend_in_sessions(monkeypatch):
    monkeypatch.setenv("REPRO_EXECUTOR", "threads")
    monkeypatch.setenv("REPRO_WORKERS", "2")
    pool = SessionPool()
    try:
        assert pool.spec.execution == ExecutionSpec()
    finally:
        pool.close()


def test_solves_through_the_pool_match_direct_session_solves():
    from repro.api import Session

    with SessionPool() as pool:
        served = pool.entry_for(HEAT).solve(HEAT, None, 2.0)
    with Session() as session:
        direct = session.queue().submit(HEAT, rhs=2.0).result()
    np.testing.assert_allclose(served.lam, direct.lam)
    assert served.iterations == direct.iterations


def test_capacity_must_be_positive():
    with pytest.raises(ValueError, match="max_sessions"):
        SessionPool(max_sessions=0)
