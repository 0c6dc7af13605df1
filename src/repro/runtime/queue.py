"""A synchronous facade over :meth:`repro.api.Session.solve_request`.

:class:`SolveQueue` runs every request inline and hands its outcome back as
a completed :class:`~concurrent.futures.Future`.  It exists only for
``benchmarks/perf/solve_bench.py``, whose ``"queue"`` kind drives the
traced pass of ``serve_closed_loop`` through
``session.queue().submit(...).result()``; ROADMAP item 1 moves that harness
to ``solve_request`` and deletes this module.  Concurrent callers bring
their own threads: ``solve_request`` is thread-safe.
"""

from __future__ import annotations

from collections.abc import Sequence
from concurrent.futures import Future
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.session import RequestSolution, Session

__all__ = ["SolveQueue"]


class SolveQueue:
    """Run ``(workload, spec, rhs)`` requests inline against one session."""

    def __init__(self, session: "Session") -> None:
        self.session = session

    def submit(self, workload: Any, spec: Any = None, rhs: Any = None) -> Future:
        """Solve one request now; never raises (a failure is the future's)."""
        future: Future = Future()
        try:
            future.set_result(self.session.solve_request(workload, spec, rhs))
        except Exception as exc:  # noqa: BLE001 - mirrored into the future
            future.set_exception(exc)
        return future

    def map(self, requests: Sequence[Any]) -> "list[RequestSolution]":
        """Solve many requests in order: each a workload, or a ``(workload,
        spec)`` / ``(workload, spec, rhs)`` tuple."""
        return [
            self.submit(*(r if isinstance(r, tuple) else (r,))).result()
            for r in requests
        ]

    def close(self) -> None:
        """Nothing to release."""
