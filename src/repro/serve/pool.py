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
from repro.runtime.queue import SolveQueue
from repro.serve.protocol import pattern_key

__all__ = ["SessionPool", "PoolEntry"]


@dataclass
class PoolEntry:
    """One pooled pattern: its session, solve queue and usage counters."""

    key: tuple
    session: Session
    queue: SolveQueue
    requests: int = 0

    def solve(self, workload: Workload, spec: SolverSpec | None, rhs: Any):
        """Run one request through the entry's queue (blocking).

        Submission is thread-safe, and same-``(workload, spec)`` requests
        that pile up behind an in-flight solve coalesce into one multi-RHS
        block solve — the serve tier's concurrent handler threads get the
        stacked-solve batching for free.
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
        self.evictions = 0

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
                    self.evictions += 1
            self._entries.move_to_end(key)
            entry.requests += 1
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

    def stats(self) -> dict[str, Any]:
        """Aggregated per-pattern cache statistics for ``GET /v1/metrics``."""
        with self._lock:
            entries = list(self._entries.items())
            evictions = self.evictions
        patterns = []
        stacked_solves = 0
        stacked_columns = 0
        coarse_applies = 0
        coarse_solves = 0
        coarse_seconds = 0.0
        resident_bytes = 0
        tier_demotions = 0
        tier_evictions = 0
        tier_refactorizations = 0
        for key, entry in entries:
            stats = entry.session.cache_stats()
            stacked_solves += stats["stacked_solves"]
            stacked_columns += stats["stacked_columns"]
            coarse_applies += stats["coarse_applies"]
            coarse_solves += stats["coarse_solves"]
            coarse_seconds += stats["coarse_seconds"]
            resident_bytes += stats["resident_bytes"]
            tier_demotions += stats["demotions"]
            tier_evictions += stats["evictions"]
            tier_refactorizations += stats["refactorizations"]
            patterns.append(
                {
                    "pattern": list(key[:2]) + [list(key[2]), *key[3:6], list(key[6])],
                    "requests": entry.requests,
                    "symbolic_analyses": stats["symbolic_analyses"],
                    "pattern_hits": stats["pattern_hits"],
                    "solves": stats["solves"],
                    "solver_reuses": stats["solver_reuses"],
                    "stacked_solves": stats["stacked_solves"],
                    "stacked_columns": stats["stacked_columns"],
                    "coarse_applies": stats["coarse_applies"],
                    "coarse_seconds": stats["coarse_seconds"],
                    "resident_bytes": stats["resident_bytes"],
                    "demotions": stats["demotions"],
                    "tier_evictions": stats["evictions"],
                    "refactorizations": stats["refactorizations"],
                }
            )
        return {
            "sessions": len(entries),
            "max_sessions": self.max_sessions,
            "evictions": evictions,
            "stacked_solves": stacked_solves,
            "stacked_columns": stacked_columns,
            "coarse_applies": coarse_applies,
            "coarse_solves": coarse_solves,
            "coarse_seconds": coarse_seconds,
            "resident_bytes": resident_bytes,
            "demotions": tier_demotions,
            "tier_evictions": tier_evictions,
            "refactorizations": tier_refactorizations,
            "patterns": patterns,
        }

    def publish_metrics(self, registry) -> None:
        """Publish pool-aggregated counters into a :class:`~repro.observe.
        metrics.MetricsRegistry` (the ``repro_pool_*`` and ``repro_tier_*``
        families of ``GET /v1/metrics/prometheus``)."""
        stats = self.stats()
        pool_keys = (
            "sessions",
            "max_sessions",
            "evictions",
            "stacked_solves",
            "stacked_columns",
            "coarse_applies",
            "coarse_solves",
            "coarse_seconds",
        )
        for key in pool_keys:
            registry.gauge(
                f"repro_pool_{key}", f"Session-pool aggregate {key}"
            ).set(float(stats[key]))
        # The PR-9 tier counters, aggregated across every pooled session —
        # named like FactorTier.publish_metrics so dashboards see one
        # family whether they scrape a session or a service.
        registry.gauge(
            "repro_tier_resident_bytes", "Factor bytes currently resident"
        ).set(float(stats["resident_bytes"]))
        registry.gauge(
            "repro_tier_demotions_total", "Factor demotions to fp32 storage"
        ).set(float(stats["demotions"]))
        registry.gauge(
            "repro_tier_evictions_total", "Factor evictions from the tier"
        ).set(float(stats["tier_evictions"]))
        registry.gauge(
            "repro_tier_refactorizations_total",
            "Lazy re-factorizations of demoted/evicted entries",
        ).set(float(stats["refactorizations"]))
        # Queue counters are summed across entries here (one gauge family
        # per service) instead of letting each queue set them in turn.
        with self._lock:
            entries = list(self._entries.values())
        requests = sum(len(e.queue._tickets) for e in entries)
        coalesced = sum(e.queue.coalesced_batches for e in entries)
        registry.gauge(
            "repro_queue_requests_total", "Requests submitted to the solve queues"
        ).set(float(requests))
        registry.gauge(
            "repro_queue_coalesced_batches_total",
            "Drained batches that coalesced more than one request",
        ).set(float(coalesced))
