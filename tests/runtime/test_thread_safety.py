"""Hammer tests: the shared caches under concurrent access (satellite 1)."""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api import Session, SolverSpec, Workload
from repro.sparse.cache import PatternCache, structural_key


def _laplacian(n: int, shift: int = 0) -> sp.csr_matrix:
    """A 1-D Laplacian-ish SPD matrix; ``shift`` varies the pattern."""
    main = 4.0 * np.ones(n)
    off = -1.0 * np.ones(n - 1)
    A = sp.diags([off, main, off], [-1, 0, 1], format="lil")
    if shift:
        A[0, min(n - 1, 2 + shift)] = -0.5
        A[min(n - 1, 2 + shift), 0] = -0.5
    return sp.csr_matrix(A)


def test_pattern_cache_hammer_many_threads_one_analysis_per_pattern():
    cache = PatternCache()
    patterns = [_laplacian(40, s) for s in range(4)]
    n_threads, rounds = 16, 25
    barrier = threading.Barrier(n_threads)
    results: list[list] = [[] for _ in range(n_threads)]

    def hammer(tid: int) -> None:
        barrier.wait()
        for r in range(rounds):
            A = patterns[(tid + r) % len(patterns)]
            results[tid].append((structural_key(A), cache.symbolic_for(A)))

    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        list(pool.map(hammer, range(n_threads)))

    # Every thread got a structurally identical analysis per pattern.  (The
    # cache deliberately computes outside the lock, so the first concurrent
    # misses may each build their own — equal — object; afterwards one
    # cached instance serves everyone.)
    by_pattern: dict = {}
    for thread_results in results:
        for key, symbolic in thread_results:
            by_pattern.setdefault(key, []).append(symbolic)
    assert len(by_pattern) == len(patterns)
    for group in by_pattern.values():
        ref = group[0]
        for symbolic in group[1:]:
            assert symbolic.n == ref.n
            assert np.array_equal(symbolic.perm, ref.perm)
            assert np.array_equal(symbolic.col_ptr, ref.col_ptr)
            assert np.array_equal(symbolic.row_idx, ref.row_idx)
    assert cache.hits + cache.misses == n_threads * rounds
    assert len(cache) == len(patterns)
    # The race window between lookup and insert may compute a pattern more
    # than once, but the count stays bounded by threads x patterns (no
    # corruption-driven repeated misses).
    assert cache.misses <= len(patterns) * n_threads
    # Steady state: one cached instance per pattern serves all new lookups.
    for A in patterns:
        assert cache.symbolic_for(A) is cache.symbolic_for(A)


def test_pattern_cache_lock_is_reentrant():
    cache = PatternCache()
    with cache._lock:
        cache.symbolic_for(_laplacian(10))
    assert len(cache) == 1


def test_session_caches_survive_concurrent_solves():
    """Concurrent solves on one session: no corruption, no double builds.

    The execution backend is pinned to ``threads`` so the requests exercise
    the *shared* session caches regardless of the ``REPRO_EXECUTOR``
    environment (the process backend would solve in worker sessions).
    """
    session = Session(SolverSpec(approach="expl mkl", execution="threads:2"))
    workloads = [
        Workload("heat", 2, (2, 2), 4),
        Workload("heat", 2, (2, 1), 3),
        Workload("elasticity", 2, (2, 1), 3),
    ]
    n_threads, rounds = 8, 4
    barrier = threading.Barrier(n_threads)
    errors: list[BaseException] = []
    lam_norms: dict[Workload, set[float]] = {w: set() for w in workloads}
    norms_lock = threading.Lock()
    queue = session.queue()  # one queue: its per-workload locks serialize

    def hammer(tid: int) -> None:
        try:
            barrier.wait()
            for r in range(rounds):
                w = workloads[(tid + r) % len(workloads)]
                queue_result = queue.submit(w).result()
                with norms_lock:
                    lam_norms[w].add(float(np.linalg.norm(queue_result.lam)))
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            list(pool.map(hammer, range(n_threads)))
    finally:
        sys.setswitchinterval(interval)
    queue.close()
    session.close()

    assert not errors
    # Every workload produced exactly one (deterministic) solution.
    for w, norms in lam_norms.items():
        assert len(norms) == 1
    stats = session.cache_stats()
    assert stats["problems"] == len(workloads)
    # One prepared solver per workload (the session spec is shared).
    assert stats["solvers"] == len(workloads)
    # The registry counters lose no increment, and the queue holds nothing.
    assert stats["solves"] == n_threads * rounds
    assert session.metrics.values("repro_queue_")["requests"] == n_threads * rounds
    assert queue.pending == 0


def test_closed_session_refuses_new_executors():
    session = Session()
    session.close()
    with pytest.raises(RuntimeError, match="closed"):
        session.executor()
