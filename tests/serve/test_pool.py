"""Tests of the pattern-keyed session pool."""

import numpy as np
import pytest

from repro.api import Workload
from repro.serve.pool import SessionPool

HEAT = Workload.from_preset("heat-2d-quick")
ELASTICITY = Workload.from_preset("elasticity-2d-quick")


def test_same_pattern_workloads_share_one_session():
    harder = Workload.from_dict({**HEAT.to_dict(), "material": {"conductivity": 9.0}})
    with SessionPool(max_sessions=4) as pool:
        first = pool.session_for(HEAT)
        second = pool.session_for(harder)
        assert first is second
        assert len(pool) == 1

        first.solve_request(HEAT)
        second.solve_request(harder)
        stats = first.cache_stats()
        # Two different workloads, one sparsity pattern: exactly one
        # symbolic analysis, the second build is a pattern-cache hit.
        assert stats["symbolic_analyses"] == 1
        assert stats["pattern_hits"] >= 1
        assert stats["solves"] == 2


def test_different_patterns_get_different_sessions():
    with SessionPool(max_sessions=4) as pool:
        assert pool.session_for(HEAT) is not pool.session_for(ELASTICITY)
        assert len(pool) == 2


def test_lru_eviction_drops_the_least_recently_used_pattern():
    coarse = Workload.from_dict({**HEAT.to_dict(), "cells": HEAT.cells + 1})
    with SessionPool(max_sessions=2) as pool:
        pool.session_for(HEAT)
        pool.session_for(ELASTICITY)
        pool.session_for(HEAT)  # refresh heat so elasticity is the LRU
        pool.session_for(coarse)  # third pattern: evicts elasticity
        stats = pool.stats()
        assert stats["evictions"] == 1
        assert len(pool) == 2
        keys = {entry["pattern"][0] for entry in stats["patterns"]}
        assert keys == {"heat"}


def test_an_evicted_session_still_answers_the_request_holding_it():
    """A request takes its session, then another pattern evicts it before
    the solve starts: the request is answered, and a later request of its
    pattern gets a new session."""
    with SessionPool(max_sessions=1) as pool:
        held = pool.session_for(HEAT)
        pool.session_for(ELASTICITY)  # evicts heat
        assert held.solve_request(HEAT, None, 2.0).converged
        assert pool.session_for(HEAT) is not held
        assert pool.stats()["evictions"] == 2


def test_solves_on_a_held_session_count_after_its_eviction():
    """A session evicted while held keeps counting; its counters join the
    pool's totals at the last release, and no total falls on the way."""
    with SessionPool(max_sessions=1) as pool:
        with pool.hold(HEAT) as held:
            held.solve_request(HEAT, None, 1.0)
            pool.session_for(ELASTICITY)  # evicts heat while held
            assert pool.stats()["solves"] == 1
            held.solve_request(HEAT, None, 2.0)
            assert pool.stats()["solves"] == 2
        assert pool.stats()["solves"] == 2
        assert pool.stats()["evictions"] == 1
        with pool.hold(HEAT) as fresh:  # a new session for the pattern
            assert fresh is not held
        assert pool.stats()["solves"] == 2


def test_pool_sessions_solve_on_one_worker():
    """A pooled session's solver runs its preprocessing inline: concurrency
    belongs to the HTTP tier, not to a pool inside each solve."""
    with SessionPool() as pool:
        assert pool.spec.execution is None
        session = pool.session_for(HEAT)
        assert session.solve_request(HEAT).converged
        assert session.solver(HEAT).operator.workers == 1


def test_solves_through_the_pool_match_direct_session_solves():
    from repro.api import Session

    with SessionPool() as pool:
        served = pool.session_for(HEAT).solve_request(HEAT, None, 2.0)
    with Session() as session:
        direct = session.solve_request(HEAT, rhs=2.0)
    np.testing.assert_allclose(served.lam, direct.lam)
    assert served.iterations == direct.iterations


def test_capacity_must_be_positive():
    with pytest.raises(ValueError, match="max_sessions"):
        SessionPool(max_sessions=0)
