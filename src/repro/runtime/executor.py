"""Execution backends of the parallel runtime.

An :class:`Executor` runs *tasks* — the preprocessing's spans of pattern
groups (:mod:`repro.runtime.preprocess`) — on one of two backends:

``serial``
    Run inline in the calling thread.  The reference backend: no pools.
``threads``
    A ``concurrent.futures.ThreadPoolExecutor``.  Tasks operate on the
    caller's objects directly; NumPy/BLAS release the GIL inside the
    dense kernels, so spans overlap on multicore hosts.  Requires the
    shared caches to be thread-safe (they are: :class:`~repro.sparse.cache.
    PatternCache` and the :class:`~repro.api.session.Session` caches are
    lock-guarded).

The :class:`ExecutionSpec` value object is the declarative description used
by :class:`repro.api.SolverSpec` (its ``execution`` field) and the bench
registry; ``REPRO_EXECUTOR`` / ``REPRO_WORKERS`` select a process-wide
default so an entire test suite can be rerun under a parallel backend
without touching any call site.
"""

from __future__ import annotations

import abc
import atexit
import os
import threading
from collections.abc import Callable, Mapping
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Any

from repro.observe.trace import capture_context, run_with_context

__all__ = [
    "BACKENDS",
    "ExecutionError",
    "ExecutionSpec",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "make_executor",
    "default_execution",
    "shared_executor",
]

#: The recognized backend names.
BACKENDS = ("serial", "threads")


class ExecutionError(ValueError):
    """An execution spec failed validation (actionable message included)."""


def _positive_workers(value: Any) -> int:
    """Validate a worker count: a whole number >= 1."""
    try:
        workers = int(value)
    except (TypeError, ValueError):
        raise ExecutionError(
            f"workers must be an integer >= 1, got {value!r}"
        ) from None
    if isinstance(value, float) and workers != value:
        raise ExecutionError(
            f"workers must be a whole number, got {value!r}"
        )
    if workers < 1:
        raise ExecutionError(
            f"workers must be an integer >= 1, got {value!r}; "
            "a parallel executor cannot run with zero or negative workers"
        )
    return workers


@dataclass(frozen=True)
class ExecutionSpec:
    """Declarative description of one execution backend.

    Attributes
    ----------
    backend:
        One of ``"serial"``, ``"threads"``.
    workers:
        Worker count of the pool (and the number of spans the
        preprocessing cuts its pattern groups into).  Forced to ``1`` for the serial backend.
    """

    backend: str = "serial"
    workers: int = 1

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ExecutionError(
                f"unknown execution backend {self.backend!r}; "
                f"expected one of: {', '.join(BACKENDS)}"
            )
        object.__setattr__(self, "workers", _positive_workers(self.workers))
        if self.backend == "serial" and self.workers != 1:
            raise ExecutionError(
                f"the serial backend runs exactly one worker, got workers={self.workers}; "
                "pick backend='threads' for a worker pool"
            )

    @property
    def parallel(self) -> bool:
        """Whether this spec describes a multi-worker execution."""
        return self.workers > 1

    # ------------------------------------------------------------------ #
    # Coercion / serialization                                            #
    # ------------------------------------------------------------------ #
    @classmethod
    def of(cls, value: "ExecutionSpec | str | Mapping[str, Any] | None") -> "ExecutionSpec":
        """Normalize ``None`` (serial), a spec, a mapping, or a string.

        Strings accept an optional worker suffix: ``"threads"`` (the
        host's CPU count), ``"threads:2"``.
        """
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            backend, sep, workers = value.partition(":")
            if not sep:
                return cls(backend=backend, workers=default_workers(backend))
            return cls(backend=backend, workers=workers)  # type: ignore[arg-type]
        if isinstance(value, Mapping):
            unknown = sorted(set(value) - {"backend", "workers"})
            if unknown:
                raise ExecutionError(
                    f"unknown execution field(s) {unknown}; "
                    "known fields: ['backend', 'workers']"
                )
            return cls(**dict(value))
        raise ExecutionError(
            f"expected an ExecutionSpec, a backend string, a dict or None, "
            f"got {type(value).__name__}"
        )

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON representation (inverse of :meth:`of`)."""
        return {"backend": self.backend, "workers": self.workers}

    def describe(self) -> str:
        """Short form used in benchmark point keys (e.g. ``threads4``)."""
        return self.backend if self.backend == "serial" else f"{self.backend}{self.workers}"


def default_workers(backend: str = "threads") -> int:
    """Default pool size of a parallel backend (serial is always 1)."""
    if backend == "serial":
        return 1
    return max(1, os.cpu_count() or 1)


def default_execution() -> ExecutionSpec:
    """The process-wide default execution, from the environment.

    ``REPRO_EXECUTOR`` selects the backend (default ``serial``) and
    ``REPRO_WORKERS`` the worker count, so CI can rerun the whole suite
    under e.g. ``REPRO_EXECUTOR=threads REPRO_WORKERS=2`` without
    touching any call site.
    """
    backend = os.environ.get("REPRO_EXECUTOR", "").strip() or "serial"
    workers = os.environ.get("REPRO_WORKERS", "").strip()
    if backend not in BACKENDS:
        raise ExecutionError(
            f"REPRO_EXECUTOR={backend!r} is not a known backend; "
            f"expected one of: {', '.join(BACKENDS)}"
        )
    if backend == "serial" or not workers:
        # REPRO_WORKERS without a parallel REPRO_EXECUTOR is meaningless —
        # serial always runs one worker.
        return ExecutionSpec(backend, default_workers(backend))
    return ExecutionSpec(backend, _positive_workers(workers))


# --------------------------------------------------------------------- #
# Executors                                                              #
# --------------------------------------------------------------------- #
class Executor(abc.ABC):
    """A backend that runs tasks and returns futures."""

    def __init__(self, spec: ExecutionSpec) -> None:
        self.spec = spec
        self._closed = False

    @property
    def backend(self) -> str:
        """Backend name of the executor."""
        return self.spec.backend

    @property
    def workers(self) -> int:
        """Worker count (= the preprocessing's span count)."""
        return self.spec.workers

    @abc.abstractmethod
    def submit(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Future:
        """Schedule one task; returns its future."""

    def close(self) -> None:
        """Shut the backend down (idempotent)."""
        self._closed = True

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(f"{type(self).__name__} has been closed")


class SerialExecutor(Executor):
    """Inline execution in the calling thread (the reference backend)."""

    def __init__(self, spec: ExecutionSpec | None = None) -> None:
        super().__init__(spec or ExecutionSpec())

    def submit(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Future:
        self._check_open()
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # noqa: BLE001 - mirrored into the future
            future.set_exception(exc)
        return future


class ThreadExecutor(Executor):
    """Thread-pool execution over the parent's objects.

    Submissions *from one of the pool's own workers* run inline instead of
    being enqueued: a task that blocks on nested futures (a solve submitted
    to the pool, waiting on its preprocessing spans) would otherwise starve
    itself when every worker is occupied by a blocking parent — the classic
    bounded-pool self-deadlock.
    """

    def __init__(self, spec: ExecutionSpec) -> None:
        super().__init__(spec)
        self._prefix = f"repro-runtime-{id(self):x}"
        self._pool = ThreadPoolExecutor(
            max_workers=spec.workers, thread_name_prefix=self._prefix
        )

    def submit(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Future:
        self._check_open()
        if threading.current_thread().name.startswith(self._prefix):
            future: Future = Future()
            try:
                future.set_result(fn(*args, **kwargs))
            except BaseException as exc:  # noqa: BLE001 - mirrored into the future
                future.set_exception(exc)
            return future
        # Trace context does not flow into pool threads by itself: capture
        # the submitter's state and re-install it around the task so worker
        # spans nest under the submitting request.
        state = capture_context()
        if state is not None:
            fn = partial(run_with_context, state, fn)
        return self._pool.submit(fn, *args, **kwargs)

    def close(self) -> None:
        if not self._closed:
            self._pool.shutdown(wait=True, cancel_futures=True)
        super().close()


def make_executor(
    spec: "ExecutionSpec | str | Mapping[str, Any] | None" = None,
) -> Executor:
    """Instantiate the executor described by a spec (serial by default)."""
    resolved = ExecutionSpec.of(spec)
    if resolved.backend == "serial":
        return SerialExecutor(resolved)
    return ThreadExecutor(resolved)


# --------------------------------------------------------------------- #
# Shared default executors                                               #
# --------------------------------------------------------------------- #
_SHARED: dict[ExecutionSpec, Executor] = {}
_SHARED_LOCK = threading.Lock()


def shared_executor(
    spec: "ExecutionSpec | str | Mapping[str, Any] | None" = None,
) -> Executor:
    """A process-wide executor for a spec (``None`` = the env default).

    Shared executors back the operators that were constructed without a
    session (the legacy ``FetiSolver(problem)`` path); they are closed at
    interpreter exit.  Callers that manage lifecycles explicitly — a
    :class:`repro.api.Session` — create their own executors instead.
    """
    resolved = default_execution() if spec is None else ExecutionSpec.of(spec)
    with _SHARED_LOCK:
        executor = _SHARED.get(resolved)
        if executor is None:
            executor = make_executor(resolved)
            _SHARED[resolved] = executor
        return executor


@atexit.register
def _close_shared_executors() -> None:
    with _SHARED_LOCK:
        executors = list(_SHARED.values())
        _SHARED.clear()
    for executor in executors:
        executor.close()
