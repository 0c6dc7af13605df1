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

Requests accept an optional ``rhs``: ``None`` solves the workload's declared
loads, a scalar scales them, and a sequence of per-subdomain arrays replaces
them outright — the problem's pristine loads are restored after every
request, so queue traffic never leaks state between users.

**Coalescing**: same-``(workload, spec)`` requests that queue up while an
earlier solve of that workload is in flight are drained *as one batch* and
solved by a single multi-RHS block PCPG (:meth:`~repro.api.session.Session.
solve_many`) — the preprocessing and the per-iteration dual-operator
kernels are shared across all coalesced right-hand sides.  Requests for
different workloads (or specs) never coalesce and keep overlapping.

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


def _validate_rhs(problem, rhs) -> None:
    """Shape-check a normalized rhs against a problem (raises ValueError)."""
    if rhs is None or isinstance(rhs, float):
        return
    if len(rhs) != len(problem.subdomains):
        raise ValueError(
            f"rhs has {len(rhs)} load vectors but the problem has "
            f"{len(problem.subdomains)} subdomains"
        )
    for sub, f in zip(problem.subdomains, rhs):
        if f.shape != sub.f.shape:
            raise ValueError(
                f"rhs for subdomain {sub.index} has shape {f.shape}, "
                f"expected {sub.f.shape}"
            )


def _loads_for(problem, base_loads, rhs) -> "list[np.ndarray] | None":
    """A request's concrete per-subdomain load vectors (``None`` = declared)."""
    _validate_rhs(problem, rhs)
    if rhs is None:
        return None
    if isinstance(rhs, float):
        return [rhs * f for f in base_loads]
    return [np.array(f, dtype=float, copy=True) for f in rhs]


def _apply_rhs(problem, base_loads, rhs) -> None:
    """Install a request's loads onto a (locked) problem."""
    values = _loads_for(problem, base_loads, rhs)
    if values is None:
        values = [f.copy() for f in base_loads]
    for sub, f in zip(problem.subdomains, values):
        sub.f = f


def _solve_request_in_session(
    session: "Session", workload: "Workload", spec: "SolverSpec", rhs
) -> QueueSolution:
    """Run one request inside a session, restoring pristine loads after."""
    if rhs is None:
        return QueueSolution.from_solution(session.solve(workload, spec))
    problem = session.problem(workload)
    base = [f.copy() for f in session.base_loads(workload)]
    try:
        _apply_rhs(problem, base, rhs)
        solution = session.solve(workload, spec)
        return QueueSolution.from_solution(solution)
    finally:
        for sub, f in zip(problem.subdomains, base):
            sub.f = f


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
        #: Guards the in-flight count and the pending-batch map (submissions
        #: may come from any number of caller threads concurrently).
        self._submit_lock = threading.Lock()
        #: Requests enqueued but not yet drained, grouped by their
        #: coalescing key ``(workload, spec)``.  A drain pops one key's
        #: whole batch under the workload's session lock and runs it as a
        #: single (possibly multi-RHS) solve.
        self._pending: dict[tuple, list[tuple[Any, Future]]] = {}
        # The queue counts into its session's registry, so every queue of a
        # session adds to the same two counters.
        self._requests = session.metrics.counter(
            "repro_queue_requests_total", "Requests submitted to the solve queues"
        )
        self._coalesced_batches = session.metrics.counter(
            "repro_queue_coalesced_batches_total",
            "Drained batches that coalesced more than one request",
        )
        #: Request-level pool of the threads backend.  Requests must not run
        #: on the session's shard executor itself: a request blocks on the
        #: shard futures of its preprocessing, so sharing the pool would let
        #: enough concurrent requests starve their own shards (deadlock).
        #: The shard pool stays dedicated to shards; this pool carries the
        #: blocking drain bodies.
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

        Requests for the same ``(workload, spec)`` that pile up while an
        earlier solve of that workload holds its lock are coalesced into a
        single multi-RHS block solve when the lock frees.
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
            self._pending.setdefault((w, s), []).append((request_rhs, future))
        future.add_done_callback(self._finished)

        if self._request_pool is not None:
            # One drain task per submission: the first to win the workload
            # lock takes the whole pending batch, later ones find it empty.
            # The drain runs on a pool thread, so the submitter's trace
            # context (if any) is re-installed around it explicitly.
            state = capture_context()
            if state is not None:
                self._request_pool.submit(run_with_context, state, self._drain, w, s)
            else:
                self._request_pool.submit(self._drain, w, s)
        else:
            # Serial backend: the request runs inline at submission (the
            # reference behaviour) — unless a concurrent submitter already
            # drained it while holding the workload lock.
            self._drain(w, s)
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
    def _drain(self, workload, spec) -> None:
        """Drain one coalescing key's pending batch and solve it.

        The lock is the *session's* per-workload lock, so requests from any
        number of queues — and direct session.solve calls — serialize on
        one workload's shared state while different workloads overlap.  The
        pending batch is popped only after the lock is won: everything that
        queued up behind the previous solve drains as one block solve.
        """
        key = (workload, spec)
        with self.session.workload_lock(workload):
            with self._submit_lock:
                batch = self._pending.pop(key, [])
            if not batch:
                return
            # Validation before the solve: a bad rhs fails its own ticket
            # and never taints the rest of the batch.
            problem = self.session.problem(workload)
            valid: list[tuple[Any, Future]] = []
            for rhs, future in batch:
                if not future.set_running_or_notify_cancel():
                    continue
                try:
                    _validate_rhs(problem, rhs)
                except Exception as exc:
                    future.set_exception(exc)
                    continue
                valid.append((rhs, future))
            if len(valid) > 1:
                self._coalesced_batches.inc()
            try:
                if not valid:
                    return
                self._run_batch(workload, spec, valid)
            except Exception as exc:  # pragma: no cover - defensive
                for _, future in valid:
                    if not future.done():
                        future.set_exception(exc)

    def _run_batch(self, workload, spec, batch) -> None:
        """Solve one drained batch in the session."""
        if len(batch) == 1:
            rhs, future = batch[0]
            try:
                future.set_result(
                    _solve_request_in_session(self.session, workload, spec, rhs)
                )
            except Exception as exc:
                future.set_exception(exc)
            return
        problem = self.session.problem(workload)
        base = self.session.base_loads(workload)
        loads_columns = [_loads_for(problem, base, rhs) for rhs, _ in batch]
        try:
            # stacked=False: the per-column block path is bitwise identical
            # to sequential solves, so a request's answer never depends on
            # how much traffic it happened to coalesce with.  Callers that
            # want the fused-GEMM kernels use Session.solve_many directly.
            solutions = self.session.solve_many(
                workload, loads_columns, spec, stacked=False
            )
        except Exception as exc:
            for _, future in batch:
                future.set_exception(exc)
            return
        for (_, future), solution in zip(batch, solutions):
            future.set_result(QueueSolution.from_solution(solution))
