"""The session pool: one :class:`~repro.api.Session` per workload pattern.

Requests whose workloads share a sparsity pattern (same physics, dimension,
grids, element order, clusters and Dirichlet faces — see
:func:`repro.serve.protocol.pattern_key`) are routed to one pooled session,
so they share its :class:`~repro.sparse.cache.PatternCache`, built problems
and prepared solvers: N same-pattern requests pay for exactly one symbolic
analysis.  Each pooled session also carries one
:class:`~repro.runtime.queue.SolveQueue`, the error-isolated execution path
every request runs through.

The pool is a bounded LRU: evicting a pattern closes its session's worker
pools.  Entries are created under the pool lock but solved *outside* it, so
slow solves on one pattern never block admission of another.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from repro.api import Session, SolverSpec, Workload
from repro.observe.metrics import MetricsRegistry
from repro.runtime.queue import SolveQueue
from repro.serve.protocol import pattern_key

__all__ = ["SessionPool", "PoolEntry"]

#: Pool gauge family -> the ``cache_stats()`` key it sums over live sessions.
_LIVE_SUMS = {
    "repro_pool_coarse_applies": "coarse_applies",
    "repro_pool_coarse_solves": "coarse_solves",
    "repro_pool_coarse_seconds": "coarse_seconds",
    "repro_tier_resident_bytes": "resident_bytes",
}


@dataclass
class PoolEntry:
    """One pooled pattern: its session and solve queue."""

    key: tuple
    session: Session
    queue: SolveQueue

    def solve(self, workload: Workload, spec: SolverSpec | None, rhs: Any):
        """Run one request through the entry's queue (blocking).

        Submission is thread-safe: the serve tier's concurrent handler
        threads serialize on the workload's session lock.
        """
        ticket = self.queue.submit(workload, spec, rhs)
        return ticket.result()


class SessionPool:
    """A bounded LRU of pattern-keyed sessions.

    Parameters
    ----------
    spec:
        Default solver configuration of every pooled session (requests may
        override per call).  The serve layer forces the serial execution
        backend inside sessions — concurrency lives in the HTTP tier's
        thread pool, and nesting a worker pool per session would
        oversubscribe the host.
    max_sessions:
        Pattern capacity; the least recently used pattern is evicted (and
        its session closed) beyond it.
    """

    def __init__(self, spec: SolverSpec | str | None = None, max_sessions: int = 8) -> None:
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {max_sessions}")
        from repro.runtime.executor import ExecutionSpec

        base = SolverSpec.of(spec)
        # Force the serial backend explicitly: execution=None would resolve
        # to the process-wide default (REPRO_EXECUTOR), and a worker pool
        # nested inside each pooled session would oversubscribe the host.
        serial = ExecutionSpec()
        if base.execution != serial:
            payload = base.to_dict()
            payload["execution"] = serial.to_dict()
            base = SolverSpec.from_dict(payload)
        self.spec = base
        self.max_sessions = max_sessions
        self._entries: OrderedDict[tuple, PoolEntry] = OrderedDict()
        self._lock = threading.Lock()
        self.metrics = MetricsRegistry()
        self._evictions = self.metrics.counter(
            "repro_pool_evictions", "Sessions evicted from the pool"
        )
        #: The counters of every evicted session, folded at eviction.
        self._retired = MetricsRegistry()

    def entry_for(self, workload: Workload) -> PoolEntry:
        """The pooled entry serving a workload's pattern (created on miss)."""
        key = pattern_key(workload)
        evicted: PoolEntry | None = None
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                session = Session(self.spec)
                entry = PoolEntry(key=key, session=session, queue=session.queue())
                self._entries[key] = entry
                if len(self._entries) > self.max_sessions:
                    _, evicted = self._entries.popitem(last=False)
                    self._evictions.inc()
                    self._retired = MetricsRegistry.fold(
                        [self._retired, evicted.session.metrics]
                    )
            self._entries.move_to_end(key)
        if evicted is not None:
            evicted.queue.close()
            evicted.session.close()
        return entry

    def close(self) -> None:
        """Close every pooled session (idempotent)."""
        with self._lock:
            entries = list(self._entries.values())
            self._entries.clear()
        for entry in entries:
            entry.queue.close()
            entry.session.close()

    def __enter__(self) -> "SessionPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _fold(self) -> tuple[MetricsRegistry, list[dict[str, Any]]]:
        """The pool's registry view and its per-pattern rows.

        Counters sum over the pool's own registry, the sessions it evicted
        and the live sessions, so no ``_total`` falls when a session goes.
        Gauges are point-in-time sums of the live sessions' ``cache_stats()``.
        """
        with self._lock:
            entries = list(self._entries.values())
            view = MetricsRegistry.fold(
                [self.metrics, self._retired, *(e.session.metrics for e in entries)]
            )
        rows = [
            {
                "pattern": list(e.key[:2]) + [list(e.key[2]), *e.key[3:6], list(e.key[6])],
                **e.session.cache_stats(),
                **e.session.metrics.values("repro_queue_"),
            }
            for e in entries
        ]
        view.gauge("repro_pool_sessions", "Pooled sessions").set(len(entries))
        view.gauge("repro_pool_max_sessions", "Session-pool capacity").set(self.max_sessions)
        for family, key in _LIVE_SUMS.items():
            view.gauge(family, f"Sum of {key} over the pooled sessions").set(
                sum(row[key] for row in rows)
            )
        return view, rows

    def view(self) -> MetricsRegistry:
        """The ``repro_pool_*`` / ``repro_tier_*`` / ``repro_queue_*``
        families of ``GET /v1/metrics/prometheus``."""
        return self._fold()[0]

    def stats(self) -> dict[str, Any]:
        """The ``session_pool`` section of ``GET /v1/metrics``: the same
        view, keyed by family name without ``repro_[pool_]`` or ``_total``,
        and one ``cache_stats()`` row per pattern."""
        view, rows = self._fold()
        doc = view.values("repro_pool_", "repro_")
        # The one key that keeps its ``cache_stats()`` name.
        doc["resident_bytes"] = doc.pop("tier_resident_bytes")
        return {**doc, "patterns": rows}
