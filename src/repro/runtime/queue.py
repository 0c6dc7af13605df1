"""The concurrent solve queue: many (workload, spec, rhs) requests, one API.

:class:`SolveQueue` is the "many users" serving path of the runtime: callers
submit solve requests against one :class:`~repro.api.session.Session` and the
queue schedules them across an executor:

* ``serial`` — requests run inline at submission (the reference behaviour);
* ``threads`` — requests run on a thread pool **sharing the session's
  caches**: two requests for the same workload reuse its prepared solvers
  (serialized on the session's per-workload lock, because a workload's
  problem loads and its solvers' operators/ledgers are stateful), while
  requests for different workloads overlap;
* ``processes`` — requests run in pool workers, each owning a worker-local
  :class:`Session` (and therefore its own pattern cache and prepared
  solvers, warmed across requests).  Workloads and specs travel as their
  JSON dictionaries; the returned :class:`QueueSolution` carries plain
  arrays.

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
shared caches, or affect requests submitted before or after it.  Process
workers re-raise failures as :class:`QueueRequestError` carrying the
worker-side traceback text, so a crashing request can never kill a pool
worker with an unpicklable exception.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from concurrent.futures import Future
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.observe.trace import capture_context, run_with_context
from repro.runtime.executor import ExecutionSpec, Executor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.session import Session
    from repro.api.spec import SolverSpec
    from repro.api.workload import Workload
    from repro.feti.solver import FetiSolution

__all__ = ["QueueRequestError", "QueueSolution", "SolveTicket", "SolveQueue"]


class QueueRequestError(RuntimeError):
    """A queued request failed in a process worker.

    Carries the worker-side traceback as plain text, so it is always
    picklable regardless of what the original exception type was.
    """


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


# --------------------------------------------------------------------- #
# Process-backend worker state                                           #
# --------------------------------------------------------------------- #
#: Worker-local sessions keyed by spec JSON; prepared solvers and pattern
#: caches persist across the requests a worker serves.
_WORKER_SESSIONS: dict[tuple, Any] = {}


def _worker_session(spec_dict: Mapping[str, Any]):
    from repro.api.session import Session
    from repro.api.spec import SolverSpec

    key = tuple(sorted((k, repr(v)) for k, v in spec_dict.items()))
    session = _WORKER_SESSIONS.get(key)
    if session is None:
        session = Session(SolverSpec.from_dict(spec_dict))
        _WORKER_SESSIONS[key] = session
    return session


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


def _process_solve(payload: tuple) -> QueueSolution:
    """Module-level process task: solve one request in a worker session.

    Failures re-raise as :class:`QueueRequestError` with the formatted
    worker traceback: always picklable, so a poison request reports through
    its own future instead of corrupting the pool's result channel, and the
    worker (with its warmed session) survives to serve later requests.
    """
    import traceback

    from repro.api.workload import Workload

    workload_dict, spec_dict, rhs = payload
    try:
        session = _worker_session(spec_dict)
        workload = Workload.from_dict(workload_dict)
        return _solve_request_in_session(session, workload, session.spec, rhs)
    except Exception as exc:
        detail = traceback.format_exc()
        raise QueueRequestError(
            f"queued solve request failed in a process worker: {exc}\n{detail}"
        ) from None


def _process_solve_many(payload: tuple) -> list[QueueSolution]:
    """Module-level process task: one coalesced batch, one block solve.

    All right-hand sides of the batch run as a single multi-RHS block PCPG
    inside the worker's warmed session — the preprocessing and the fused
    apply kernels are paid once for the whole batch.
    """
    import traceback

    from repro.api.workload import Workload

    workload_dict, spec_dict, rhs_list = payload
    try:
        session = _worker_session(spec_dict)
        workload = Workload.from_dict(workload_dict)
        problem = session.problem(workload)
        base = session.base_loads(workload)
        loads_columns = [_loads_for(problem, base, rhs) for rhs in rhs_list]
        # stacked=False keeps coalesced answers bitwise equal to sequential
        # ones (reproducibility under load); see SolveQueue._run_batch_local.
        solutions = session.solve_many(
            workload, loads_columns, session.spec, stacked=False
        )
        return [QueueSolution.from_solution(s) for s in solutions]
    except Exception as exc:
        detail = traceback.format_exc()
        raise QueueRequestError(
            f"coalesced solve batch failed in a process worker: {exc}\n{detail}"
        ) from None


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
        executor.  With the process backend the session's *configuration*
        is shipped to the workers, which keep their own warmed sessions.
    """

    def __init__(
        self, session: "Session", executor: Executor | None = None
    ) -> None:
        import threading
        import weakref
        from concurrent.futures import ThreadPoolExecutor

        self.session = session
        self.executor = executor if executor is not None else session.executor()
        self._tickets: list[SolveTicket] = []
        #: Guards ticket bookkeeping and the pending-batch map (submissions
        #: may come from any number of caller threads concurrently).
        self._submit_lock = threading.Lock()
        #: Requests enqueued but not yet drained, grouped by their
        #: coalescing key ``(workload, spec)``.  A drain pops one key's
        #: whole batch under the workload's session lock and runs it as a
        #: single (possibly multi-RHS) solve.
        self._pending: dict[tuple, list[tuple[Any, Future]]] = {}
        #: Count of drained batches that actually coalesced (>1 request).
        self.coalesced_batches = 0
        #: Request-level pool of the threads and processes backends.
        #: Requests must not run on the session's shard executor itself: a
        #: request blocks on the shard futures of its preprocessing, so
        #: sharing the pool would let enough concurrent requests starve
        #: their own shards (deadlock).  The shard pool stays dedicated to
        #: shards; this pool carries the blocking drain bodies (which, for
        #: the process backend, dispatch to pool workers and wait).
        self._request_pool: ThreadPoolExecutor | None = None
        if self.executor.backend in ("threads", "processes"):
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
        w = None
        try:
            w = self.session.resolve_workload(workload)
            s = self.session.resolve_spec(spec)
            request_rhs = _normalize_rhs(rhs)
        except Exception as exc:
            with self._submit_lock:
                ticket = SolveTicket(
                    request_id=len(self._tickets),
                    workload=w,
                    future=_failed_future(exc),
                )
                self._tickets.append(ticket)
            return ticket

        future: Future = Future()
        key = (w, s)
        with self._submit_lock:
            ticket = SolveTicket(
                request_id=len(self._tickets), workload=w, future=future
            )
            self._tickets.append(ticket)
            self._pending.setdefault(key, []).append((request_rhs, future))

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
        return ticket

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

    def gather(self) -> list[QueueSolution]:
        """Wait for every submitted request (submission order)."""
        return [t.result() for t in self._tickets]

    @property
    def pending(self) -> int:
        """Requests submitted but not yet finished."""
        return sum(1 for t in self._tickets if not t.done)

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
            # Parent-side validation: a bad rhs fails its own ticket (with
            # the original exception type) and never reaches a worker or
            # taints the rest of the batch.
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
                with self._submit_lock:
                    self.coalesced_batches += 1
            try:
                if not valid:
                    return
                if self.executor.backend == "processes":
                    self._run_batch_processes(workload, spec, valid)
                else:
                    self._run_batch_local(workload, spec, valid)
            except Exception as exc:  # pragma: no cover - defensive
                for _, future in valid:
                    if not future.done():
                        future.set_exception(exc)

    def _run_batch_local(self, workload, spec, batch) -> None:
        """Solve one drained batch in-process (serial / threads backends)."""
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

    def _run_batch_processes(self, workload, spec, batch) -> None:
        """Ship one drained batch to a pool worker and wait for it."""
        spec_dict = spec.to_dict()
        # Workers solve serially: a nested pool inside a pool worker would
        # oversubscribe the host (and break under env defaults).
        spec_dict["execution"] = ExecutionSpec().to_dict()
        rhs_list = [rhs for rhs, _ in batch]
        try:
            if len(batch) == 1:
                task = self.executor.submit(
                    _process_solve, (workload.to_dict(), spec_dict, rhs_list[0])
                )
                batch[0][1].set_result(task.result())
            else:
                task = self.executor.submit(
                    _process_solve_many, (workload.to_dict(), spec_dict, rhs_list)
                )
                solutions = task.result()
                self.session.note_stacked_solve(len(batch))
                for (_, future), solution in zip(batch, solutions):
                    future.set_result(solution)
        except Exception as exc:
            for _, future in batch:
                if not future.done():
                    future.set_exception(exc)
