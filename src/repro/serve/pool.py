"""The session pool: one :class:`~repro.api.Session` per workload pattern.

Requests whose workloads share a sparsity pattern (same physics, dimension,
grids, element order, clusters and Dirichlet faces — see
:func:`repro.serve.protocol.pattern_key`) are routed to one pooled session,
so they share its :class:`~repro.sparse.cache.PatternCache`, built problems
and prepared solvers: N same-pattern requests pay for exactly one symbolic
analysis.  The serve tier runs every request as
:meth:`~repro.api.Session.solve_request` of its pattern's session.

The pool is a bounded LRU: evicting a pattern drops its session from the
pool without closing it, so a request that already holds it still solves
on it; its storage goes with its last reference.  Sessions are created
under the pool lock but solved *outside* it, so slow solves on one pattern
never block admission of another.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

from repro.api import Session, SolverSpec, Workload
from repro.observe.metrics import MetricsRegistry
from repro.serve.protocol import pattern_key

__all__ = ["SessionPool"]

#: Pool gauge family -> the ``cache_stats()`` key it sums over live sessions.
_LIVE_SUMS = {
    "repro_pool_coarse_applies": "coarse_applies",
    "repro_pool_coarse_solves": "coarse_solves",
    "repro_pool_coarse_seconds": "coarse_seconds",
    "repro_tier_resident_bytes": "resident_bytes",
}


class SessionPool:
    """A bounded LRU of pattern-keyed sessions.

    Parameters
    ----------
    spec:
        Default solver configuration of every pooled session (requests may
        override per call).
    max_sessions:
        Pattern capacity; the least recently used pattern is evicted
        beyond it.
    """

    def __init__(self, spec: SolverSpec | str | None = None, max_sessions: int = 8) -> None:
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {max_sessions}")
        self.spec = SolverSpec.of(spec)
        self.max_sessions = max_sessions
        self._sessions: OrderedDict[tuple, Session] = OrderedDict()
        self._lock = threading.Lock()
        self.metrics = MetricsRegistry()
        self._evictions = self.metrics.counter(
            "repro_pool_evictions", "Sessions evicted from the pool"
        )
        #: The counters of every evicted session, folded at eviction.
        self._retired = MetricsRegistry()

    def session_for(self, workload: Workload) -> Session:
        """The pooled session serving a workload's pattern (created on miss).

        Its :meth:`~repro.api.Session.solve_request` is thread-safe: the
        serve tier's concurrent handler threads serialize on the
        workload's session lock.
        """
        key = pattern_key(workload)
        with self._lock:
            session = self._sessions.get(key)
            if session is None:
                session = self._sessions[key] = Session(self.spec)
                if len(self._sessions) > self.max_sessions:
                    _, evicted = self._sessions.popitem(last=False)
                    self._evictions.inc()
                    self._retired = MetricsRegistry.fold([self._retired, evicted.metrics])
            self._sessions.move_to_end(key)
        return session

    def close(self) -> None:
        """Close every pooled session (idempotent)."""
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for session in sessions:
            session.close()

    def __enter__(self) -> "SessionPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def _fold(self) -> tuple[MetricsRegistry, list[dict[str, Any]]]:
        """The pool's registry view and its per-pattern rows.

        Counters sum over the pool's own registry, the sessions it evicted
        and the live sessions, so no ``_total`` falls when a session goes.
        Gauges are point-in-time sums of the live sessions' ``cache_stats()``.
        """
        with self._lock:
            sessions = list(self._sessions.items())
            view = MetricsRegistry.fold(
                [self.metrics, self._retired, *(s.metrics for _, s in sessions)]
            )
        rows = [
            {
                "pattern": list(key[:2]) + [list(key[2]), *key[3:6], list(key[6])],
                **session.cache_stats(),
            }
            for key, session in sessions
        ]
        view.gauge("repro_pool_sessions", "Pooled sessions").set(len(sessions))
        view.gauge("repro_pool_max_sessions", "Session-pool capacity").set(self.max_sessions)
        for family, key in _LIVE_SUMS.items():
            view.gauge(family, f"Sum of {key} over the pooled sessions").set(
                sum(row[key] for row in rows)
            )
        return view, rows

    def view(self) -> MetricsRegistry:
        """The ``repro_pool_*`` / ``repro_tier_*`` families of
        ``GET /v1/metrics/prometheus``."""
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
