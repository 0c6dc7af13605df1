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
on it; its storage goes with its last reference.  The server takes its
session through :meth:`SessionPool.hold`: a session evicted while held
stays in the pool's counters and is folded into them at its last release,
so solves that finish on it after the eviction are counted.  Sessions are
created under the pool lock but solved *outside* it, so slow solves on one
pattern never block admission of another.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Iterator
from contextlib import contextmanager
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
        #: The counters of every evicted session no request holds any more.
        self._retired = MetricsRegistry()
        #: Open holds per session (see :meth:`hold`).
        self._holds: dict[Session, int] = {}
        #: Evicted sessions still held: counted live until their last release.
        self._draining: list[Session] = []

    def session_for(self, workload: Workload) -> Session:
        """The pooled session serving a workload's pattern (created on miss).

        Its :meth:`~repro.api.Session.solve_request` is thread-safe: the
        serve tier's concurrent handler threads serialize on the
        workload's session lock.  A session evicted while nobody holds it
        has its counters folded at the eviction; solve through :meth:`hold`
        to keep counting solves that finish after it.
        """
        return self._checkout(pattern_key(workload), held=False)

    @contextmanager
    def hold(self, workload: Workload) -> Iterator[Session]:
        """:meth:`session_for`, held until the block exits.

        An eviction while held leaves the session's counters live; they are
        folded into the pool's at the last release.
        """
        session = self._checkout(pattern_key(workload), held=True)
        try:
            yield session
        finally:
            with self._lock:
                self._holds[session] -= 1
                if not self._holds[session]:
                    del self._holds[session]
                    if session in self._draining:
                        self._draining.remove(session)
                        self._retire(session)

    def _checkout(self, key: tuple, held: bool) -> Session:
        with self._lock:
            session = self._sessions.get(key)
            if session is None:
                session = self._sessions[key] = Session(self.spec)
                if len(self._sessions) > self.max_sessions:
                    _, evicted = self._sessions.popitem(last=False)
                    self._evictions.inc()
                    if evicted in self._holds:
                        self._draining.append(evicted)
                    else:
                        self._retire(evicted)
            self._sessions.move_to_end(key)
            if held:
                self._holds[session] = self._holds.get(session, 0) + 1
        return session

    def _retire(self, session: Session) -> None:
        """Fold a session that left the pool into its totals (lock held)."""
        self._retired = MetricsRegistry.fold([self._retired, session.metrics])

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
        (held ones live) and the pooled sessions, so no ``_total`` falls
        when a session goes.  Gauges are point-in-time sums of the pooled
        sessions' ``cache_stats()``.
        """
        with self._lock:
            sessions = list(self._sessions.items())
            view = MetricsRegistry.fold(
                [
                    self.metrics,
                    self._retired,
                    *(s.metrics for s in self._draining),
                    *(s.metrics for _, s in sessions),
                ]
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
