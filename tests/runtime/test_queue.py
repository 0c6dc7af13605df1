"""Tests of the concurrent solve queue (the "many users" serving path)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Session, SolverSpec, Workload
from repro.runtime.queue import QueueSolution, SolveQueue

HEAT = Workload("heat", 2, (2, 2), 4)
HEAT_SMALL = Workload("heat", 2, (2, 1), 3)
ELASTICITY = Workload("elasticity", 2, (2, 1), 3)

BACKENDS = [None, "threads:2"]


def _reference(workload, spec=None):
    with Session(SolverSpec.of(spec)) as session:
        return session.solve(workload)


@pytest.mark.parametrize("backend", BACKENDS)
def test_queue_reproduces_direct_session_solves(backend):
    spec = SolverSpec(execution=backend) if backend else SolverSpec()
    with Session(spec) as session:
        queue = session.queue()
        tickets = [queue.submit(w) for w in (HEAT, HEAT_SMALL, ELASTICITY)]
        results = [t.result() for t in tickets]
    for workload, result in zip((HEAT, HEAT_SMALL, ELASTICITY), results):
        assert isinstance(result, QueueSolution)
        reference = _reference(workload)
        assert result.converged
        assert result.iterations == reference.iterations
        np.testing.assert_allclose(result.lam, reference.lam, rtol=1e-9, atol=1e-11)
        for got, ref in zip(result.primal, reference.primal):
            np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-11)


@pytest.mark.parametrize("backend", BACKENDS)
def test_scalar_rhs_scales_the_declared_loads(backend):
    spec = SolverSpec(execution=backend) if backend else SolverSpec()
    with Session(spec) as session:
        queue = session.queue()
        base = queue.submit(HEAT).result()
        scaled = queue.submit(HEAT, rhs=2.0).result()
        again = queue.submit(HEAT).result()
    # The dual problem is linear in the loads.
    np.testing.assert_allclose(scaled.lam, 2.0 * base.lam, rtol=1e-6, atol=1e-9)
    # Pristine loads are restored after a scaled request.
    np.testing.assert_allclose(again.lam, base.lam, rtol=0, atol=0)


def test_vector_rhs_replaces_the_loads():
    with Session() as session:
        problem = session.problem(HEAT)
        doubled = [2.0 * sub.f for sub in problem.subdomains]
        queue = session.queue()
        base = queue.submit(HEAT).result()
        custom = queue.submit(HEAT, rhs=doubled).result()
        # Loads restored afterwards.
        for sub, f in zip(problem.subdomains, session.base_loads(HEAT)):
            assert np.array_equal(sub.f, f)
    np.testing.assert_allclose(custom.lam, 2.0 * base.lam, rtol=1e-6, atol=1e-9)


def test_rhs_validation_is_actionable():
    with Session() as session:
        queue = session.queue()
        # submit never raises: the rejection lives in the ticket's future.
        bad_type = queue.submit(HEAT, rhs=object())
        with pytest.raises(TypeError, match="rhs must be"):
            bad_type.result()
        assert bad_type.exception() is not None
        bad_count = queue.submit(HEAT, rhs=[np.zeros(3)])
        with pytest.raises(ValueError, match="load vectors"):
            bad_count.result()


def test_map_preserves_submission_order():
    with Session(SolverSpec(execution="threads:2")) as session:
        queue = session.queue()
        results = queue.map([HEAT, (HEAT_SMALL, None), (HEAT, None, 3.0)])
    assert len(results) == 3
    np.testing.assert_allclose(results[2].lam, 3.0 * results[0].lam, rtol=1e-6, atol=1e-9)


def test_queue_holds_no_finished_request():
    """A served request's solution is reachable only through its ticket:
    the queue keeps no reference once the request finished."""
    import gc
    import tracemalloc
    import weakref

    with Session(SolverSpec(approach="expl mkl")) as session:
        queue = session.queue()
        queue.submit(HEAT, rhs=0.5).result()  # warm the caches before measuring
        refs = []
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(200):
                refs.append(weakref.ref(queue.submit(HEAT, rhs=1.0 + i).result()))
            gc.collect()
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert queue.pending == 0
        assert session.metrics.values("repro_queue_")["requests"] == 201
    assert not [r for r in refs if r() is not None]
    assert growth < 1_000_000, growth


def test_per_call_spec_override():
    with Session(SolverSpec(approach="impl mkl")) as session:
        queue = session.queue()
        result = queue.submit(HEAT, spec=SolverSpec(approach="expl mkl")).result()
    reference = _reference(HEAT, SolverSpec(approach="expl mkl"))
    np.testing.assert_allclose(result.lam, reference.lam, rtol=1e-9, atol=1e-11)


def test_queue_solution_is_picklable():
    import pickle

    with Session() as session:
        result = session.queue().submit(HEAT_SMALL).result()
    clone = pickle.loads(pickle.dumps(result))
    assert np.array_equal(clone.lam, result.lam)
    assert clone.iterations == result.iterations


def test_ndarray_rhs_and_string_rejection():
    """A stacked 2-D array is the natural numpy form of per-subdomain loads."""
    with Session() as session:
        problem = session.problem(HEAT)
        stacked = np.stack([2.0 * sub.f for sub in problem.subdomains])
        queue = session.queue()
        base = queue.submit(HEAT).result()
        custom = queue.submit(HEAT, rhs=stacked).result()
        with pytest.raises(TypeError, match="rhs must be"):
            queue.submit(HEAT, rhs="2.0").result()
    np.testing.assert_allclose(custom.lam, 2.0 * base.lam, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("backend", BACKENDS)
def test_poison_request_does_not_stall_or_corrupt_later_requests(backend):
    """Error isolation: a failing request reports through its own ticket only."""
    spec = SolverSpec(execution=backend) if backend else SolverSpec()
    with Session(spec) as session:
        queue = session.queue()
        before = queue.submit(HEAT)
        # Three distinct poison flavours: unresolvable workload (submit-time),
        # bad rhs type (submit-time), bad rhs length (solve-time).
        poison = [
            queue.submit("no-such-preset"),
            queue.submit(HEAT, rhs=object()),
            queue.submit(HEAT, rhs=[np.zeros(3)]),
        ]
        after = queue.submit(HEAT)
        for ticket in poison:
            assert ticket.exception(timeout=60) is not None
            with pytest.raises(Exception):
                ticket.result()
        # Healthy requests bracketing the poison are unaffected and identical.
        np.testing.assert_allclose(
            before.result().lam, after.result().lam, rtol=0, atol=0
        )
        # The session keeps serving new requests after the failures.
        again = queue.submit(HEAT, rhs=2.0).result()
    np.testing.assert_allclose(again.lam, 2.0 * before.result().lam, rtol=1e-6, atol=1e-9)


def test_poison_rhs_fails_at_drain_time_with_its_own_exception():
    """A bad rhs is rejected at drain time, before any solve — the original
    exception type reaches the ticket and the queue keeps serving."""
    with Session(SolverSpec(execution="threads:2")) as session:
        queue = session.queue()
        bad = queue.submit(HEAT, rhs=[np.zeros(3)])
        exc = bad.exception(timeout=120)
        assert isinstance(exc, ValueError)
        assert "load vectors" in str(exc)
        good = queue.submit(HEAT).result()
        assert good.converged


def test_ticket_cancellation():
    """Unstarted requests can be cancelled; cancelled tickets report it."""
    with Session(SolverSpec(execution="threads:1")) as session:
        queue = session.queue()
        tickets = [queue.submit(HEAT_SMALL) for _ in range(6)]
        cancelled = [t for t in tickets if t.cancel()]
        for t in tickets:
            if t.cancelled:
                assert t.done
            else:
                assert t.result(timeout=120).converged
        # Cancellation is best-effort: at least the queue stayed consistent.
        assert len(cancelled) == sum(1 for t in tickets if t.cancelled)


def test_stale_marker_survives_a_failing_solve():
    """A failed solve must not clear the stale flag (regression: the flag
    was dropped before the solve ran, so a later solve would reuse a
    factorization of mutated stiffness values)."""

    with Session() as session:
        baseline = session.solve(HEAT_SMALL).lam.copy()

        def harden(step, problem):
            for sub in problem.subdomains:
                sub.K_reg = sub.K_reg * 2.0
                sub.K = sub.K * 2.0

        session.run_steps(HEAT_SMALL, update=harden)
        # The schedule marked the solver stale.  Sabotage the next solve.
        solver = session.solver(HEAT_SMALL)
        original = solver.preprocess
        def boom():
            raise RuntimeError("injected preprocessing failure")
        solver.preprocess = boom
        with pytest.raises(RuntimeError, match="injected"):
            session.solve(HEAT_SMALL)
        solver.preprocess = original
        # The retry still re-runs preprocessing (stale flag intact) and
        # reproduces the pristine baseline.
        recovered = session.solve(HEAT_SMALL)
    np.testing.assert_allclose(recovered.lam, baseline, rtol=1e-9, atol=1e-11)


def test_two_queues_share_the_session_workload_lock():
    """Requests from separate queues must serialize on one workload.

    Each request solves under a different load scaling; any interleaving of
    the load mutation/restore across queues would break the exact linearity
    of the results.
    """
    from concurrent.futures import ThreadPoolExecutor

    with Session(SolverSpec(approach="expl mkl", execution="threads:2")) as session:
        base = session.queue().submit(HEAT).result()
        queues = [session.queue(), session.queue()]

        def request(k: int):
            scale = 1.0 + 0.5 * k
            return scale, queues[k % 2].submit(HEAT, rhs=scale).result()

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(request, range(8)))
        # Direct session.solve traffic interleaves safely too.
        direct = session.solve(HEAT)
    np.testing.assert_allclose(direct.lam, base.lam, rtol=0, atol=0)
    for scale, result in results:
        np.testing.assert_allclose(
            result.lam, scale * base.lam, rtol=1e-6, atol=1e-9
        )


# --------------------------------------------------------------------- #
# Bursts: every request its own scalar solve                             #
# --------------------------------------------------------------------- #
def _solve_at(session, workload, scale):
    """``Session.solve`` with the declared loads scaled by ``scale``."""
    problem = session.problem(workload)
    base = session.base_loads(workload)
    with session.workload_lock(workload):
        for sub, f in zip(problem.subdomains, base):
            sub.f = scale * f
        try:
            return session.solve(workload)
        finally:
            for sub, f in zip(problem.subdomains, base):
                sub.f = f.copy()


def _burst_behind_held_lock(session, queue, payloads):
    """Submit ``payloads`` from concurrent threads while the workload lock
    is held, release it once all are pending; tickets in payload order."""
    import threading
    import time

    tickets = [None] * len(payloads)

    def submit(i):
        tickets[i] = queue.submit(HEAT, rhs=payloads[i])

    threads = [threading.Thread(target=submit, args=(i,)) for i in range(len(payloads))]
    with session.workload_lock(HEAT):
        for t in threads:
            t.start()
        # Serial submitters block inside their own request, threads-backend
        # ones on a pool thread: either way they wait on the lock held here.
        deadline = time.monotonic() + 30
        while queue.pending < len(payloads) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert queue.pending == len(payloads)
    for t in threads:
        t.join(timeout=120)
    return tickets


@pytest.mark.parametrize("backend", BACKENDS)
def test_burst_behind_a_held_lock_is_bitwise_sequential_solves(backend):
    """Same-workload requests that pile up behind an in-flight solve each
    get their own scalar solve: bitwise ``Session.solve`` at their loads."""
    spec = SolverSpec(execution=backend) if backend else SolverSpec()
    scales = (1.0, 2.0, 3.0)
    with Session(spec) as session:
        queue = session.queue()
        tickets = _burst_behind_held_lock(session, queue, list(scales))
        results = [t.result(timeout=120) for t in tickets]
        references = [_solve_at(session, HEAT, scale) for scale in scales]
        assert session.cache_stats()["stacked_solves"] == 0
        queue.close()
    for result, reference in zip(results, references):
        assert result.converged
        assert result.lam.tobytes() == reference.lam.tobytes()
        assert result.iterations == reference.iterations


def test_queue_traffic_runs_no_stacked_solve():
    with Session() as session:
        queue = session.queue()
        queue.submit(HEAT).result()
        queue.submit(ELASTICITY).result()
        queue.submit(HEAT, rhs=2.0).result()
        assert session.cache_stats()["stacked_solves"] == 0
        assert session.metrics.values("repro_queue_") == {"requests": 3}


@pytest.mark.parametrize("backend", BACKENDS)
def test_bad_rhs_in_a_burst_fails_only_its_own_ticket(backend):
    """A bad rhs among concurrent requests carries its ValueError on its own
    ticket; the others solve bitwise as if it were not there."""
    spec = SolverSpec(execution=backend) if backend else SolverSpec()
    with Session(spec) as session:
        queue = session.queue()
        tickets = _burst_behind_held_lock(session, queue, [2.0, [np.zeros(3)], 3.0])
        bad = tickets[1].exception(timeout=120)
        assert isinstance(bad, ValueError) and "load vectors" in str(bad)
        good = [tickets[0].result(timeout=120), tickets[2].result(timeout=120)]
        references = [_solve_at(session, HEAT, scale) for scale in (2.0, 3.0)]
        assert session.cache_stats()["stacked_solves"] == 0
        queue.close()
    for result, reference in zip(good, references):
        assert result.lam.tobytes() == reference.lam.tobytes()


@pytest.mark.parametrize("backend", BACKENDS)
def test_free_running_burst_matches_sequential_results(backend):
    """Whatever order a burst's requests win the workload lock in, every
    ticket's solution is bitwise its own sequential solve."""
    scales = (1.0, 2.0, 3.0, 4.0)
    with Session(SolverSpec(execution=backend) if backend else SolverSpec()) as session:
        queue = session.queue()
        tickets = [queue.submit(HEAT, rhs=scale) for scale in scales]
        results = [t.result(timeout=300) for t in tickets]
        references = [_solve_at(session, HEAT, scale) for scale in scales]
        assert session.cache_stats()["stacked_solves"] == 0
        queue.close()
    for result, reference in zip(results, references):
        assert result.converged
        assert result.lam.tobytes() == reference.lam.tobytes()
