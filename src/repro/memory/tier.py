"""Budget-aware factor tiering: LRU demotion and eviction under a ceiling.

A :class:`FactorTier` tracks every cached ``(workload, spec)`` solver entry
of a :class:`~repro.api.session.Session` in least-recently-used order and,
whenever the ledger's resident bytes exceed the configured budget, walks the
cold end of the LRU through a two-step state machine:

* **full → demoted** — the entry's factor and pack storage is converted to
  fp32 (resident bytes roughly halve) and the entry is marked stale: it
  keeps its built structure (problem, symbolic analysis, projector) warm,
  but the next touch re-runs the numeric factorization in the spec's own
  precision, so demotion can never change a solve's results.
* **demoted → evicted** — the solver is dropped entirely; the next touch
  rebuilds it from the session caches (a full lazy re-factorization).

Entries whose spec already stores fp32 factors skip the demotion step (they
are half-size to begin with) and go straight to eviction.  The entry
currently being solved is never selected as a victim, and the session only
demotes entries whose workload lock is free — an in-flight solve always
completes on the storage it started with.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from typing import Hashable

from repro.memory.ledger import EntryBytes, FactorLedger

__all__ = ["BudgetError", "parse_budget", "FactorTier"]

#: Entry states of the tier's LRU state machine.
FULL = "full"
DEMOTED = "demoted"

_SUFFIX_BYTES = {
    "": 1,
    "K": 1024,
    "M": 1024**2,
    "G": 1024**3,
    "T": 1024**4,
}


class BudgetError(ValueError):
    """Raised for an unparseable or non-positive memory budget."""


def parse_budget(budget: int | float | str | None) -> int | None:
    """Parse a memory budget into bytes.

    Accepts ``None`` (no ceiling), a byte count, or a string with an
    optional binary suffix: ``"64M"``, ``"1.5G"``, ``"512K"``, ``"4096"``
    (``B``/``iB`` spellings tolerated, case-insensitive).  ``"none"`` /
    ``"unlimited"`` / ``""`` disable the ceiling — the spelling the
    ``REPRO_MEMORY_BUDGET`` environment variable uses to override a
    configured default away.
    """
    if budget is None:
        return None
    if isinstance(budget, (int, float)):
        nbytes = int(budget)
        if nbytes <= 0:
            raise BudgetError(f"memory budget must be positive, got {budget!r}")
        return nbytes
    text = budget.strip()
    if text == "" or text.lower() in ("none", "unlimited", "off"):
        return None
    match = re.fullmatch(
        r"(?i)\s*([0-9]+(?:\.[0-9]+)?)\s*([KMGT]?)(?:I?B)?\s*", text
    )
    if match is None:
        raise BudgetError(
            f"cannot parse memory budget {budget!r} "
            "(expected e.g. '64M', '1.5G', '4096')"
        )
    value = float(match.group(1)) * _SUFFIX_BYTES[match.group(2).upper()]
    nbytes = int(value)
    if nbytes <= 0:
        raise BudgetError(f"memory budget must be positive, got {budget!r}")
    return nbytes


class FactorTier:
    """LRU tier state machine over the session's cached solver entries."""

    def __init__(self, budget_bytes: int | None = None) -> None:
        self.budget_bytes = budget_bytes
        self.ledger = FactorLedger()
        self._lock = threading.Lock()
        #: key -> (state, demotable); insertion order is LRU (oldest first).
        self._lru: OrderedDict[Hashable, tuple[str, bool]] = OrderedDict()
        self._demotions = 0
        self._evictions = 0
        self._refactorizations = 0

    # ------------------------------------------------------------------ #
    @property
    def demotions(self) -> int:
        return self._demotions

    @property
    def evictions(self) -> int:
        return self._evictions

    @property
    def refactorizations(self) -> int:
        return self._refactorizations

    def state(self, key: Hashable) -> str | None:
        """The tier state of one entry (``None`` when untracked)."""
        with self._lock:
            entry = self._lru.get(key)
            return entry[0] if entry is not None else None

    # ------------------------------------------------------------------ #
    def record(self, key: Hashable, entry: EntryBytes, demotable: bool) -> None:
        """(Re-)measure an entry at full fidelity and mark it most recent."""
        self.ledger.record(key, entry)
        with self._lock:
            self._lru[key] = (FULL, demotable)
            self._lru.move_to_end(key)

    def touch(self, key: Hashable) -> None:
        """Refresh an entry's recency without re-measuring it."""
        with self._lock:
            if key in self._lru:
                self._lru.move_to_end(key)

    def over_budget(self) -> bool:
        """Whether the resident bytes exceed the configured ceiling."""
        return (
            self.budget_bytes is not None
            and self.ledger.resident_bytes > self.budget_bytes
        )

    def next_victim(self, exclude: set[Hashable]) -> tuple[Hashable, str] | None:
        """The coldest reclaimable entry and the action to take on it.

        Returns ``(key, "demote")`` for a full, demotable entry and
        ``(key, "evict")`` otherwise; ``None`` when every tracked entry is
        excluded (all in use) — the budget is then temporarily exceeded
        rather than blocking the solve that needs the memory.
        """
        with self._lock:
            for key, (state, demotable) in self._lru.items():
                if key in exclude:
                    continue
                if state == FULL and demotable:
                    return key, "demote"
                return key, "evict"
        return None

    def mark_demoted(self, key: Hashable, entry: EntryBytes) -> None:
        """Record a demotion: halved measurement, state ``demoted``."""
        self.ledger.record(key, entry)
        with self._lock:
            if key in self._lru:
                demotable = self._lru[key][1]
                self._lru[key] = (DEMOTED, demotable)
            self._demotions += 1

    def mark_evicted(self, key: Hashable) -> None:
        """Record an eviction: the entry leaves the ledger and the LRU."""
        self.ledger.forget(key)
        with self._lock:
            self._lru.pop(key, None)
            self._evictions += 1

    def count_refactorization(self) -> None:
        """One lazy re-factorization (rebuild of a demoted/evicted entry)."""
        with self._lock:
            self._refactorizations += 1

    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, int | None]:
        """Counters for ``Session.cache_stats()`` / ``/v1/metrics``."""
        with self._lock:
            demoted = sum(1 for state, _ in self._lru.values() if state == DEMOTED)
            tracked = len(self._lru)
            demotions = self._demotions
            evictions = self._evictions
            refactorizations = self._refactorizations
        return {
            "memory_budget_bytes": self.budget_bytes,
            "resident_bytes": self.ledger.resident_bytes,
            "peak_resident_bytes": self.ledger.peak_bytes,
            "resident_entries": tracked,
            "demoted_entries": demoted,
            "demotions": demotions,
            "evictions": evictions,
            "refactorizations": refactorizations,
        }
