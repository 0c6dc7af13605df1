"""The request/result cache of the solve service.

An LRU over fully rendered response payloads, keyed by the
``(workload, spec, rhs)`` content hash of
:func:`repro.serve.protocol.request_fingerprint`.  A hit returns the stored
payload without touching a session (and without consuming an admission
slot); its hit/miss counters live in :attr:`ResultCache.metrics` and
:meth:`ResultCache.view` adds the point-in-time gauges to them.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

from repro.observe.metrics import MetricsRegistry

__all__ = ["ResultCache"]


class ResultCache:
    """A bounded, thread-safe LRU of response payloads.

    Parameters
    ----------
    max_entries:
        Capacity; the least recently used entry is evicted beyond it.
        ``0`` disables caching (every lookup is a miss, nothing is stored).
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        self.max_entries = max_entries
        self._entries: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self._lock = threading.Lock()
        self.metrics = MetricsRegistry()
        self._hits = self.metrics.counter("repro_result_cache_hits", "Result-cache hits")
        self._misses = self.metrics.counter(
            "repro_result_cache_misses", "Result-cache misses"
        )

    def get(self, key: str | None) -> dict[str, Any] | None:
        """The payload stored under ``key``, or ``None`` (counts hit/miss).

        ``None`` is the key of a request a disabled cache never hashed: a
        miss, counted without a lookup.
        """
        payload = None
        if key is not None:
            with self._lock:
                payload = self._entries.get(key)
                if payload is not None:
                    self._entries.move_to_end(key)
        (self._misses if payload is None else self._hits).inc()
        return payload

    def put(self, key: str, payload: dict[str, Any]) -> None:
        """Store a payload (evicting the LRU entry when full)."""
        if self.max_entries == 0:
            return
        with self._lock:
            self._entries[key] = payload
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def view(self) -> MetricsRegistry:
        """The counters plus the entry count, capacity and hit rate."""
        view = MetricsRegistry.fold([self.metrics])
        hits, misses = self._hits.value(), self._misses.value()
        view.gauge("repro_result_cache_entries", "Result-cache entries").set(len(self))
        view.gauge("repro_result_cache_max_entries", "Result-cache capacity").set(
            self.max_entries
        )
        view.gauge("repro_result_cache_hit_rate", "Result-cache hit rate").set(
            hits / (hits + misses) if hits + misses else 0.0
        )
        return view

    def stats(self) -> dict[str, Any]:
        """The ``result_cache`` section of ``GET /v1/metrics``."""
        return self.view().values("repro_result_cache_")
