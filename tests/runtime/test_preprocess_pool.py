"""Where a preprocessing round runs: inline, or on a pool of its own.

One worker runs the round's one span task in the calling thread and opens
no pool.  ``threads:n`` runs one task per span on a thread pool opened for
that round alone; the pool's threads are joined before the round returns,
so a round leaves no thread behind and a caller that is itself a pool
thread never waits on a queue it occupies.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.runtime.preprocess as preprocess
from repro.api import Session, SolverSpec, Workload
from repro.api.workload import build_problem
from repro.feti.solver import FetiSolver

#: Four subdomains of one pattern group: ``threads:n`` cuts it into n spans.
WORKLOAD = Workload("heat", 2, (2, 2), 4)


def _operator(execution):
    spec = SolverSpec(approach="expl mkl", execution=execution)
    return FetiSolver(build_problem(WORKLOAD), spec).operator


def _record_span_threads(monkeypatch) -> list[int]:
    """Wrap ``_run_span``: the returned list collects each task's thread."""
    threads: list[int] = []
    run_span = preprocess._run_span

    def recorded(*args, **kwargs):
        threads.append(threading.get_ident())
        return run_span(*args, **kwargs)

    monkeypatch.setattr(preprocess, "_run_span", recorded)
    return threads


@pytest.mark.parametrize("execution", [None, "serial", "threads:1"])
def test_one_worker_runs_the_round_inline_without_a_pool(monkeypatch, execution):
    def no_pool(*args, **kwargs):
        raise AssertionError("a one-worker round opened a thread pool")

    monkeypatch.setattr(preprocess, "ThreadPoolExecutor", no_pool)
    threads = _record_span_threads(monkeypatch)
    operator = _operator(execution)
    operator.preprocess()
    assert threads == [threading.get_ident()]
    assert sorted(operator.local_F) == list(range(WORKLOAD.n_subdomains))


@pytest.mark.parametrize("workers", [2, 3])
def test_threads_run_one_task_per_span_off_the_calling_thread(monkeypatch, workers):
    threads = _record_span_threads(monkeypatch)
    operator = _operator(f"threads:{workers}")
    operator.preprocess()
    assert len(threads) == workers
    assert threading.get_ident() not in threads
    assert sorted(operator.local_F) == list(range(WORKLOAD.n_subdomains))


@pytest.mark.parametrize("workers", [2, 4])
def test_a_round_leaves_no_pool_thread_behind(workers):
    operator = _operator(f"threads:{workers}")
    operator.prepare()
    before = set(threading.enumerate())
    operator.preprocess()
    operator.preprocess()
    assert set(threading.enumerate()) <= before


def test_a_threaded_solve_submitted_to_a_one_thread_pool_completes():
    """The round's pool is its own: a solve running on the only thread of
    an outer pool does not queue its spans behind itself."""
    outer = ThreadPoolExecutor(max_workers=1)
    try:
        with Session(SolverSpec(approach="expl mkl", execution="threads:2")) as session:
            solution = outer.submit(session.solve, WORKLOAD).result(timeout=120)
        assert solution.converged
    finally:
        outer.shutdown(wait=False)
