"""Tests of ``Session.solve_request``: one ``(workload, spec, rhs)`` request.

Every request is its own scalar solve under the session's workload lock,
so its answer is bitwise ``Session.solve`` at the same loads, whatever
else is in flight; concurrency comes from the caller's threads.
"""

from __future__ import annotations

import pickle
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import RequestSolution, Session, SolverSpec, StepValues, Workload

HEAT = Workload("heat", 2, (2, 2), 4)
HEAT_SMALL = Workload("heat", 2, (2, 1), 3)
ELASTICITY = Workload("elasticity", 2, (2, 1), 3)

BACKENDS = [None, "threads:2"]


def _session(backend=None, **spec) -> Session:
    return Session(SolverSpec(execution=backend, **spec))


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


@pytest.mark.parametrize("backend", BACKENDS)
def test_requests_reproduce_direct_session_solves(backend):
    with _session(backend) as session:
        results = [session.solve_request(w) for w in (HEAT, HEAT_SMALL, ELASTICITY)]
    for workload, result in zip((HEAT, HEAT_SMALL, ELASTICITY), results):
        assert isinstance(result, RequestSolution)
        with Session() as reference_session:
            reference = reference_session.solve(workload)
        assert result.converged
        assert result.iterations == reference.iterations
        np.testing.assert_allclose(result.lam, reference.lam, rtol=1e-9, atol=1e-11)
        for got, ref in zip(result.primal, reference.primal):
            np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-11)


@pytest.mark.parametrize("backend", BACKENDS)
def test_scalar_rhs_scales_the_declared_loads(backend):
    with _session(backend) as session:
        base = session.solve_request(HEAT)
        scaled = session.solve_request(HEAT, rhs=2.0)
        again = session.solve_request(HEAT)
    # The dual problem is linear in the loads.
    np.testing.assert_allclose(scaled.lam, 2.0 * base.lam, rtol=1e-6, atol=1e-9)
    # Pristine loads are restored after a scaled request.
    assert again.lam.tobytes() == base.lam.tobytes()


def test_vector_rhs_replaces_the_loads():
    with Session() as session:
        problem = session.problem(HEAT)
        doubled = [2.0 * sub.f for sub in problem.subdomains]
        base = session.solve_request(HEAT)
        custom = session.solve_request(HEAT, rhs=doubled)
        for sub, f in zip(problem.subdomains, session.base_loads(HEAT)):
            assert np.array_equal(sub.f, f)
    np.testing.assert_allclose(custom.lam, 2.0 * base.lam, rtol=1e-6, atol=1e-9)


def test_ndarray_rhs_and_string_rejection():
    """A stacked 2-D array is the natural numpy form of per-subdomain loads."""
    with Session() as session:
        stacked = np.stack([2.0 * sub.f for sub in session.problem(HEAT).subdomains])
        base = session.solve_request(HEAT)
        custom = session.solve_request(HEAT, rhs=stacked)
        with pytest.raises(TypeError, match="rhs must be"):
            session.solve_request(HEAT, rhs="2.0")
    np.testing.assert_allclose(custom.lam, 2.0 * base.lam, rtol=1e-6, atol=1e-9)


def test_rhs_validation_is_actionable():
    with Session() as session:
        with pytest.raises(TypeError, match="rhs must be"):
            session.solve_request(HEAT, rhs=object())
        with pytest.raises(ValueError, match="load vectors"):
            session.solve_request(HEAT, rhs=[np.zeros(3)])


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("form", ["scalar", "vector"])
def test_non_finite_loads_are_a_named_error(form, value):
    """A NaN or infinite load is a ``ValueError`` naming it, not a
    non-converged answer with a NaN ``λ``; the session solves on."""
    with Session() as session:
        if form == "scalar":
            rhs, match = value, "load factor must be finite"
        else:
            rhs = [np.full_like(sub.f, value) for sub in session.problem(HEAT).subdomains]
            match = "subdomain 0 holds non-finite entries"
        with pytest.raises(ValueError, match=match):
            session.solve_request(HEAT, rhs=rhs)
        assert session.cache_stats()["solves"] == 0
        after = session.solve_request(HEAT, rhs=2.0)
        assert after.converged
        assert np.isfinite(after.lam).all()


def test_a_bad_rhs_is_rejected_before_the_workload_lock():
    """A rejected request never waits behind an in-flight solve."""
    with Session() as session:
        session.problem(HEAT)
        outcome = []

        def request():
            try:
                session.solve_request(HEAT, rhs=[np.zeros(3)])
            except ValueError as exc:
                outcome.append(exc)

        with session.workload_lock(HEAT):
            thread = threading.Thread(target=request)
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert len(outcome) == 1 and "load vectors" in str(outcome[0])


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_bad_request_fails_alone(backend):
    """A failing request raises in its own call only: the requests around
    it are bitwise unaffected and the session keeps serving."""
    with _session(backend) as session:
        before = session.solve_request(HEAT)
        for workload, rhs, error in [
            ("no-such-preset", None, Exception),
            (HEAT, object(), TypeError),
            (HEAT, [np.zeros(3)], ValueError),
        ]:
            with pytest.raises(error):
                session.solve_request(workload, rhs=rhs)
        after = session.solve_request(HEAT)
        again = session.solve_request(HEAT, rhs=2.0)
    assert before.lam.tobytes() == after.lam.tobytes()
    np.testing.assert_allclose(again.lam, 2.0 * before.lam, rtol=1e-6, atol=1e-9)


def test_per_call_spec_override():
    with Session(SolverSpec(approach="impl mkl")) as session:
        result = session.solve_request(HEAT, spec=SolverSpec(approach="expl mkl"))
    with Session(SolverSpec(approach="expl mkl")) as session:
        reference = session.solve(HEAT)
    np.testing.assert_allclose(result.lam, reference.lam, rtol=1e-9, atol=1e-11)


def test_request_solution_is_picklable():
    with Session() as session:
        result = session.solve_request(HEAT_SMALL)
    clone = pickle.loads(pickle.dumps(result))
    assert np.array_equal(clone.lam, result.lam)
    assert clone.iterations == result.iterations


def test_a_session_holds_no_answered_request():
    """A request's solution is reachable only through its caller."""
    import gc
    import tracemalloc
    import weakref

    with Session(SolverSpec(approach="expl mkl")) as session:
        session.solve_request(HEAT, rhs=0.5)  # warm the caches before measuring
        refs = []
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(200):
                refs.append(weakref.ref(session.solve_request(HEAT, rhs=1.0 + i)))
            gc.collect()
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert session.cache_stats()["solves"] == 201
    assert not [r for r in refs if r() is not None]
    assert growth < 1_000_000, growth


def test_stale_marker_survives_a_failing_solve():
    """A failed solve must not clear the stale flag (regression: the flag
    was dropped before the solve ran, so a later solve would reuse a
    factorization of mutated stiffness values)."""
    with Session() as session:
        baseline = session.solve(HEAT_SMALL).lam.copy()

        def harden(step, problem):
            scale = 2.0 ** (step + 1)
            return StepValues(
                K=[scale * group.K.values for group in problem.groups],
                K_reg=[scale * group.K_reg.values for group in problem.groups],
            )

        session.run_steps(HEAT_SMALL, update=harden)
        # The schedule marked the solver stale.  Sabotage the next solve.
        solver = session.solver(HEAT_SMALL)
        original = solver.preprocess

        def boom():
            raise RuntimeError("injected preprocessing failure")

        solver.preprocess = boom
        with pytest.raises(RuntimeError, match="injected"):
            session.solve_request(HEAT_SMALL)
        solver.preprocess = original
        # The retry still re-runs preprocessing (stale flag intact) and
        # reproduces the pristine baseline.
        recovered = session.solve_request(HEAT_SMALL)
    np.testing.assert_allclose(recovered.lam, baseline, rtol=1e-9, atol=1e-11)


def test_request_threads_share_one_workload_lock():
    """Concurrent requests of one workload serialize on the session lock.

    Each request solves under a different load scaling; any interleaving of
    the load swap/restore across threads would break the exact linearity
    of the results.
    """
    with _session("threads:2", approach="expl mkl") as session:
        base = session.solve_request(HEAT)

        def request(k: int):
            scale = 1.0 + 0.5 * k
            return scale, session.solve_request(HEAT, rhs=scale)

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(request, range(8)))
        # Direct session.solve traffic interleaves safely too.
        direct = session.solve(HEAT)
    assert direct.lam.tobytes() == base.lam.tobytes()
    for scale, result in results:
        np.testing.assert_allclose(result.lam, scale * base.lam, rtol=1e-6, atol=1e-9)


# --------------------------------------------------------------------- #
# Bursts: every request its own scalar solve                             #
# --------------------------------------------------------------------- #
def _burst_behind_held_lock(session, payloads):
    """Start one request thread per payload while the workload lock is
    held, release it once every thread has called in; outcomes (a solution
    or the raised exception) in payload order."""
    outcomes = [None] * len(payloads)
    calling = [threading.Event() for _ in payloads]

    def request(i):
        calling[i].set()
        try:
            outcomes[i] = session.solve_request(HEAT, rhs=payloads[i])
        except Exception as exc:  # noqa: BLE001 - asserted by the caller
            outcomes[i] = exc

    threads = [threading.Thread(target=request, args=(i,)) for i in range(len(payloads))]
    with session.workload_lock(HEAT):
        for t in threads:
            t.start()
        for event in calling:
            assert event.wait(timeout=30)
        time.sleep(0.05)  # let every caller reach the lock
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    return outcomes


@pytest.mark.parametrize("backend", BACKENDS)
def test_burst_behind_a_held_lock_is_bitwise_sequential_solves(backend):
    """Same-workload requests that pile up behind an in-flight solve each
    get their own scalar solve: bitwise ``Session.solve`` at their loads;
    a bad rhs among them fails only its own call."""
    with _session(backend) as session:
        outcomes = _burst_behind_held_lock(session, [1.0, [np.zeros(3)], 2.0, 3.0])
        bad = outcomes.pop(1)
        references = [_solve_at(session, HEAT, scale) for scale in (1.0, 2.0, 3.0)]
        assert session.cache_stats()["stacked_solves"] == 0
    assert isinstance(bad, ValueError) and "load vectors" in str(bad)
    for result, reference in zip(outcomes, references):
        assert result.converged
        assert result.lam.tobytes() == reference.lam.tobytes()
        assert result.iterations == reference.iterations


@pytest.mark.parametrize("backend", BACKENDS)
def test_free_running_burst_matches_sequential_results(backend):
    """Whatever order a burst's requests win the workload lock in, every
    answer is bitwise its own sequential solve."""
    scales = (1.0, 2.0, 3.0, 4.0)
    with _session(backend) as session:
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(lambda s: session.solve_request(HEAT, rhs=s), scales))
        references = [_solve_at(session, HEAT, scale) for scale in scales]
        assert session.cache_stats()["stacked_solves"] == 0
    for result, reference in zip(results, references):
        assert result.converged
        assert result.lam.tobytes() == reference.lam.tobytes()


def test_requests_run_no_stacked_solve():
    with Session() as session:
        session.solve_request(HEAT)
        session.solve_request(ELASTICITY)
        session.solve_request(HEAT, rhs=2.0)
        stats = session.cache_stats()
    assert stats["stacked_solves"] == 0
    assert stats["solves"] == 3


# --------------------------------------------------------------------- #
# The synchronous queue facade                                           #
# --------------------------------------------------------------------- #
def test_queue_facade_never_raises_and_keeps_order():
    with Session() as session:
        queue = session.queue()
        bad = queue.submit(HEAT, rhs=object())
        assert bad.done() and isinstance(bad.exception(), TypeError)
        results = queue.map([HEAT, (HEAT_SMALL, None), (HEAT, None, 3.0)])
        queue.close()
        direct = session.solve_request(HEAT, rhs=3.0)
    assert results[2].lam.tobytes() == direct.lam.tobytes()
    np.testing.assert_allclose(results[2].lam, 3.0 * results[0].lam, rtol=1e-6, atol=1e-9)
