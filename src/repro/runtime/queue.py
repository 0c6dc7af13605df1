"""The concurrent solve queue: many (workload, spec, rhs) requests, one API.

:class:`SolveQueue` is the "many users" serving path of the runtime: callers
submit solve requests against one :class:`~repro.api.session.Session` and the
queue schedules them across an executor:

* ``serial`` — requests run inline at submission (the reference behaviour);
* ``threads`` — requests run on a thread pool **sharing the session's
  caches**: two requests for the same workload reuse its prepared solvers
  (serialized on the session's per-workload lock, because a workload's
  problem loads and its solvers' operators/ledgers are stateful), while
  requests for different workloads overlap.

Every request is its own scalar solve, so its answer is bitwise the
:meth:`~repro.api.session.Session.solve` of the same loads whatever else is
in flight.  Many load cases of one workload known up front are one
:meth:`~repro.api.session.Session.solve_many` call instead.

Requests accept an optional ``rhs``: ``None`` solves the workload's declared
loads, a scalar scales them, and a sequence of per-subdomain arrays replaces
them outright — the problem's pristine loads are restored after every
request, so queue traffic never leaks state between users.

**Error isolation contract**: a malformed or failing request surfaces its
exception through *that request's* ticket only (``submit`` itself never
raises) — a poison request cannot stall the queue, corrupt the session's
shared caches, or affect requests submitted before or after it.  A failed
request's ticket carries the original exception.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from concurrent.futures import Future
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.observe.trace import capture_context, run_with_context
from repro.runtime.executor import Executor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.session import Session
    from repro.api.spec import SolverSpec
    from repro.api.workload import Workload
    from repro.feti.solver import FetiSolution

__all__ = ["QueueSolution", "SolveTicket", "SolveQueue"]


@dataclass
class QueueSolution:
    """Backend-independent result of one queued solve (picklable)."""

    lam: np.ndarray
    alpha: np.ndarray
    primal: list[np.ndarray]
    iterations: int
    converged: bool
    preprocessing_seconds: float
    dual_apply_seconds: float
    #: Wall seconds of the coarse-problem work of this solve.
    coarse_seconds: float = 0.0

    @classmethod
    def from_solution(cls, solution: "FetiSolution") -> "QueueSolution":
        return cls(
            lam=solution.lam,
            alpha=solution.alpha,
            primal=list(solution.primal),
            iterations=solution.iterations,
            converged=solution.converged,
            preprocessing_seconds=solution.preprocessing.simulated_seconds,
            dual_apply_seconds=solution.dual_apply_seconds,
            coarse_seconds=solution.coarse_seconds,
        )


@dataclass
class SolveTicket:
    """Handle of one submitted request (submission order preserved).

    ``workload`` is ``None`` when the request was rejected before its
    workload could even be resolved (the rejection lives in ``future``).
    """

    request_id: int
    workload: "Workload | None"
    future: Future

    def result(self, timeout: float | None = None) -> QueueSolution:
        """Block until the request's solution is available."""
        return self.future.result(timeout)

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """The request's exception, or ``None`` if it succeeded."""
        return self.future.exception(timeout)

    def cancel(self) -> bool:
        """Cancel the request if it has not started running yet."""
        return self.future.cancel()

    @property
    def done(self) -> bool:
        """Whether the request has finished."""
        return self.future.done()

    @property
    def cancelled(self) -> bool:
        """Whether the request was cancelled before it ran."""
        return self.future.cancelled()


def _failed_future(exc: BaseException) -> Future:
    """A completed future carrying a submission-time rejection."""
    future: Future = Future()
    future.set_exception(exc)
    return future


def _normalize_rhs(rhs: Any) -> float | list[np.ndarray] | None:
    if rhs is None:
        return None
    if isinstance(rhs, (int, float, np.integer, np.floating)):
        return float(rhs)
    if isinstance(rhs, np.ndarray):
        if rhs.ndim == 0:
            return float(rhs)
        # A stacked 2-D array (or 1-D object array) of per-subdomain loads.
        return [np.asarray(f, dtype=float) for f in rhs]
    if isinstance(rhs, Sequence) and not isinstance(rhs, (str, bytes)):
        return [np.asarray(f, dtype=float) for f in rhs]
    raise TypeError(
        "rhs must be None, a scalar load factor, or a sequence of "
        f"per-subdomain load vectors, got {type(rhs).__name__}"
    )


def _solve_request_in_session(
    session: "Session", workload: "Workload", spec: "SolverSpec", rhs
) -> QueueSolution:
    """Run one request inside a session, restoring pristine loads after."""
    if rhs is None:
        return QueueSolution.from_solution(session.solve(workload, spec))
    problem = session.problem(workload)
    base = session.base_loads(workload)
    if isinstance(rhs, float):
        loads = [rhs * f for f in base]
    else:
        problem.check_loads(rhs)
        loads = [np.array(f, dtype=float, copy=True) for f in rhs]
    try:
        for sub, f in zip(problem.subdomains, loads):
            sub.f = f
        return QueueSolution.from_solution(session.solve(workload, spec))
    finally:
        for sub, f in zip(problem.subdomains, base):
            sub.f = f.copy()


# --------------------------------------------------------------------- #
# The queue                                                              #
# --------------------------------------------------------------------- #
class SolveQueue:
    """Schedule many solve requests against one session.

    Parameters
    ----------
    session:
        The owning session (problems, prepared solvers, pattern cache).
    executor:
        The backend the requests run on; defaults to the session's default
        executor.
    """

    def __init__(
        self, session: "Session", executor: Executor | None = None
    ) -> None:
        import itertools
        import threading
        import weakref
        from concurrent.futures import ThreadPoolExecutor

        self.session = session
        self.executor = executor if executor is not None else session.executor()
        self._request_ids = itertools.count()
        #: Requests submitted and not yet finished.  The queue keeps no
        #: reference to a request once its future completes.
        self._in_flight = 0
        #: Guards the in-flight count (submissions may come from any number
        #: of caller threads concurrently).
        self._submit_lock = threading.Lock()
        # The queue counts into its session's registry, so every queue of a
        # session adds to the same counter.
        self._requests = session.metrics.counter(
            "repro_queue_requests_total", "Requests submitted to the solve queues"
        )
        #: Request-level pool of the threads backend.  Requests must not run
        #: on the session's preprocessing executor itself: a request blocks
        #: on the span futures of its preprocessing, so sharing the pool
        #: would let enough concurrent requests starve their own spans
        #: (deadlock).  The executor's pool stays dedicated to spans; this
        #: pool carries the blocking request bodies.
        self._request_pool: ThreadPoolExecutor | None = None
        if self.executor.backend == "threads":
            self._request_pool = ThreadPoolExecutor(
                max_workers=self.executor.workers, thread_name_prefix="repro-queue"
            )
            self._finalizer = weakref.finalize(
                self, self._request_pool.shutdown, wait=False
            )

    def close(self) -> None:
        """Shut the request pool down (idempotent; results stay readable)."""
        if self._request_pool is not None:
            self._request_pool.shutdown(wait=True)

    def __enter__(self) -> "SolveQueue":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def submit(
        self,
        workload: "Workload | str | Mapping[str, Any]",
        spec: "SolverSpec | str | None" = None,
        rhs: Any = None,
    ) -> SolveTicket:
        """Enqueue one request; returns its ticket immediately.

        Never raises: a malformed workload/spec/rhs is reported through the
        returned ticket's future, so one bad request in a submission batch
        cannot prevent the others from being enqueued.
        """
        self._requests.inc()
        request_id = next(self._request_ids)
        w = None
        try:
            w = self.session.resolve_workload(workload)
            s = self.session.resolve_spec(spec)
            request_rhs = _normalize_rhs(rhs)
        except Exception as exc:
            return SolveTicket(request_id, w, _failed_future(exc))

        future: Future = Future()
        with self._submit_lock:
            self._in_flight += 1
        future.add_done_callback(self._finished)

        if self._request_pool is not None:
            # The request runs on a pool thread, so the submitter's trace
            # context (if any) is re-installed around it explicitly.
            state = capture_context()
            if state is not None:
                self._request_pool.submit(
                    run_with_context, state, self._run, w, s, request_rhs, future
                )
            else:
                self._request_pool.submit(self._run, w, s, request_rhs, future)
        else:
            # Serial backend: the request runs inline at submission (the
            # reference behaviour).
            self._run(w, s, request_rhs, future)
        return SolveTicket(request_id, w, future)

    def map(
        self,
        requests: Sequence[
            "Workload | str | Mapping[str, Any] | tuple"
        ],
    ) -> list[QueueSolution]:
        """Submit many requests and gather their results in order.

        Each request is a workload, or a ``(workload, spec)`` /
        ``(workload, spec, rhs)`` tuple.
        """
        tickets = []
        for request in requests:
            if isinstance(request, tuple):
                tickets.append(self.submit(*request))
            else:
                tickets.append(self.submit(request))
        return [t.result() for t in tickets]

    @property
    def pending(self) -> int:
        """Requests submitted but not yet finished."""
        return self._in_flight

    def _finished(self, _future: Future) -> None:
        with self._submit_lock:
            self._in_flight -= 1

    # ------------------------------------------------------------------ #
    def _run(self, workload, spec, rhs, future: Future) -> None:
        """Solve one request under the session's workload lock.

        The lock is the *session's* per-workload lock, so requests from any
        number of queues — and direct session.solve calls — serialize on
        one workload's shared state while different workloads overlap.  A
        request waiting for the lock can still be cancelled; its rhs is
        checked against the problem once the lock is won, before the solve.
        """
        with self.session.workload_lock(workload):
            if not future.set_running_or_notify_cancel():
                return
            try:
                result = _solve_request_in_session(self.session, workload, spec, rhs)
            except Exception as exc:
                future.set_exception(exc)
            else:
                future.set_result(result)
