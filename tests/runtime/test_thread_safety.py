"""Hammer tests: the shared caches under concurrent access (satellite 1)."""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api import Session, SolverSpec, StepValues, Workload
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

    The requests' preprocessing runs on ``threads:2`` as well, so request
    threads and pool threads share the session caches at once.
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
    def hammer(tid: int) -> None:
        try:
            barrier.wait()
            for r in range(rounds):
                w = workloads[(tid + r) % len(workloads)]
                result = session.solve_request(w)
                with norms_lock:
                    lam_norms[w].add(float(np.linalg.norm(result.lam)))
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            list(pool.map(hammer, range(n_threads)))
    finally:
        sys.setswitchinterval(interval)
    session.close()

    assert not errors
    # Every workload produced exactly one (deterministic) solution.
    for w, norms in lam_norms.items():
        assert len(norms) == 1
    stats = session.cache_stats()
    assert stats["problems"] == len(workloads)
    # One prepared solver per workload (the session spec is shared).
    assert stats["solvers"] == len(workloads)
    # The registry counters lose no increment.
    assert stats["solves"] == n_threads * rounds
    assert session.metrics.values("repro_pool_")["solves"] == n_threads * rounds


def test_two_sessions_on_one_workload_solve_at_their_own_loads():
    """Two sessions share the process-wide problem of one workload.

    Each thread drives its own session at its own load factor, through
    ``solve_request`` with a scalar, ``solve_request`` with per-subdomain
    loads and a two-column ``solve_many``.  The loads are arguments of the
    solves, so no answer sees the other thread's loads and no subdomain's
    ``f`` is replaced.
    """
    workload = Workload("heat", 2, (4, 4), 8, n_clusters=2)
    spec = SolverSpec(approach="expl mkl")
    with Session(spec) as session:
        reference = np.concatenate(session.solve(workload).primal)
        base = session.base_loads(workload)
        problem = session.problem(workload)
    f_before = [sub.f for sub in problem.subdomains]
    factors = (2.0, 0.5)
    sessions = [Session(spec) for _ in factors]
    rounds = 12
    barrier = threading.Barrier(len(factors))
    answers: list[tuple[float, np.ndarray]] = []
    errors: list[BaseException] = []

    def hammer(tid: int) -> None:
        session, a = sessions[tid], factors[tid]
        loads = [a * f for f in base]
        try:
            barrier.wait()
            for r in range(rounds):
                if r % 3 == 0:
                    solutions = [session.solve_request(workload, rhs=a)]
                elif r % 3 == 1:
                    solutions = [session.solve_request(workload, rhs=loads)]
                else:
                    solutions = session.solve_many(workload, [loads, loads])
                answers.extend((a, np.concatenate(s.primal)) for s in solutions)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(factors)) as pool:
            list(pool.map(hammer, range(len(factors))))
    finally:
        sys.setswitchinterval(interval)
        for session in sessions:
            session.close()

    assert not errors
    assert len(answers) == len(factors) * rounds * 4 // 3
    worst = max(
        np.linalg.norm(primal - a * reference) / np.linalg.norm(a * reference)
        for a, primal in answers
    )
    assert worst <= 1e-9
    assert all(sub.f is f for sub, f in zip(problem.subdomains, f_before))


def _doubled(step: int, problem) -> StepValues:
    return StepValues(
        K=[2.0 * group.K.values for group in problem.groups],
        K_reg=[2.0 * group.K_reg.values for group in problem.groups],
    )


def test_a_stiffness_schedule_leaks_into_no_cold_solve_of_another_session():
    """One session runs schedules whose ``update`` returns doubled ``K`` and
    ``K_reg`` while 40 fresh sessions solve the same workload cold.

    The problem is shared process-wide; the schedule's stiffness values are
    arguments of its steps, so every cold answer is the single-threaded
    reference.
    """
    workload = Workload("heat", 2, (4, 4), 8, n_clusters=2)
    spec = SolverSpec(approach="expl mkl")
    with Session(spec) as session:
        reference = np.concatenate(session.solve(workload).primal)
    stop = threading.Event()

    def schedules() -> int:
        runs = 0
        with Session(spec) as session:
            while not stop.is_set():
                records = session.run_steps(workload, n_steps=2, update=_doubled)
                assert [r.preprocessed for r in records] == [True, False]
                runs += 1
        return runs

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    answers = []
    try:
        with ThreadPoolExecutor(max_workers=1) as pool:
            runs = pool.submit(schedules)
            try:
                for _ in range(40):
                    with Session(spec) as cold:
                        answers.append(np.concatenate(cold.solve(workload).primal))
            finally:
                stop.set()
            assert runs.result() > 0
    finally:
        sys.setswitchinterval(interval)
    worst = max(np.linalg.norm(u - reference) / np.linalg.norm(reference) for u in answers)
    assert worst <= 1e-9


def test_a_session_takes_its_pristine_loads_from_the_build():
    """A session that first touches a workload while another session's
    ``update`` has rebound the loads still scales the built ones."""
    workload = Workload("heat", 2, (2, 2), 4)
    with Session() as session:
        reference = session.solve_request(workload, rhs=2.0)
        built = [f.copy() for f in session.base_loads(workload)]
    entered, release = threading.Event(), threading.Event()

    def hold(step: int, problem) -> None:
        for sub, f in zip(problem.subdomains, built):
            sub.f = 3.0 * f
        entered.set()
        assert release.wait(timeout=60)

    with Session() as holder, Session() as late:
        with ThreadPoolExecutor(max_workers=1) as pool:
            schedule = pool.submit(holder.run_steps, workload, 1, update=hold)
            try:
                assert entered.wait(timeout=60)
                late.base_loads(workload)  # the first touch, the loads rebound
            finally:
                release.set()
            schedule.result()
        assert all(np.array_equal(f, f0) for f, f0 in zip(late.base_loads(workload), built))
        answer = late.solve_request(workload, rhs=2.0)
    assert np.array_equal(answer.lam, reference.lam)


def test_a_closed_session_refuses_new_solves():
    """A closed session takes no new work: ``solve`` (through ``solver``)
    raises, the cached problem stays readable."""
    workload = Workload("heat", 2, (2, 1), 3)
    session = Session()
    session.problem(workload)
    session.close()
    with pytest.raises(RuntimeError, match="closed"):
        session.solve(workload)
    assert session.problem(workload).n_subdomains == 2


@pytest.mark.parametrize(
    "entry",
    [
        lambda session, w: session.solve_many(w, [None, None]),
        lambda session, w: session.run(w),
        lambda session, w: session.operator_for(w),
    ],
    ids=["solve_many", "run", "operator_for"],
)
def test_every_entry_to_a_solver_of_a_closed_session_raises(entry):
    workload = Workload("heat", 2, (2, 1), 3)
    session = Session()
    session.close()
    with pytest.raises(RuntimeError, match="closed"):
        entry(session, workload)
