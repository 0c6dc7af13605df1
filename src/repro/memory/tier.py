"""Budget-aware factor tiering: LRU release under a ceiling.

A :class:`FactorTier` tracks every cached ``(workload, spec)`` solver entry
of a :class:`~repro.api.session.Session` in least-recently-used order and,
whenever the ledger's resident bytes exceed the configured budget, releases
entries from the cold end of the LRU.  An entry is in one of two states:

* **full** — its numeric factors and assembled ``F̃ᵢ`` are resident and
  measured in the ledger;
* **released** — :meth:`~repro.feti.operators.base.DualOperator.release`
  dropped them (0 budgeted bytes).  The entry keeps its built structure
  warm (problem, symbolic analysis, projector, scatters, cost replay); its
  operator is no longer preprocessed, so the next touch re-runs the numeric
  factorization in the spec's own precision and a release can never change
  a solve's results.  Re-measuring a released entry counts that lazy
  re-factorization and makes it full again.

The entry currently being solved is never selected as a victim, and the
session only releases entries whose workload lock is free — an in-flight
solve always completes on the storage it started with.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from typing import Hashable

from repro.memory.ledger import EntryBytes, FactorLedger
from repro.observe.metrics import MetricsRegistry

__all__ = ["BudgetError", "parse_budget", "FactorTier"]

#: Entry states of the tier's LRU.
FULL = "full"
RELEASED = "released"

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
    """LRU of the session's cached solver entries, released under a budget."""

    def __init__(
        self, budget_bytes: int | None = None, metrics: MetricsRegistry | None = None
    ) -> None:
        self.budget_bytes = budget_bytes
        self.ledger = FactorLedger()
        self._lock = threading.Lock()
        #: key -> (state, storage version measured); insertion order is LRU
        #: (oldest first).
        self._lru: OrderedDict[Hashable, tuple[str, int | None]] = OrderedDict()
        #: The registry the tier counts into (its session's).
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._releases = self.metrics.counter(
            "repro_tier_releases_total", "Cold entries whose factors were released"
        )
        self._refactorizations = self.metrics.counter(
            "repro_tier_refactorizations_total",
            "Lazy re-factorizations of released entries",
        )

    # ------------------------------------------------------------------ #
    def state(self, key: Hashable) -> str | None:
        """The tier state of one entry (``None`` when untracked)."""
        with self._lock:
            entry = self._lru.get(key)
            return entry[0] if entry is not None else None

    def entries(self) -> tuple[int, int]:
        """How many entries are tracked, and how many of them are released."""
        with self._lock:
            states = [state for state, _ in self._lru.values()]
        return len(states), states.count(RELEASED)

    # ------------------------------------------------------------------ #
    def record(self, key: Hashable, entry: EntryBytes, version: int | None = None) -> None:
        """(Re-)measure an entry at full fidelity and mark it most recent.

        ``version`` is the storage version the measurement was taken at
        (:attr:`~repro.feti.operators.base.DualOperator.storage_version`);
        ``None`` matches no version.  Re-measuring a released entry counts
        its lazy re-factorization.
        """
        self.ledger.record(key, entry)
        with self._lock:
            previous = self._lru.get(key)
            self._lru[key] = (FULL, version)
            self._lru.move_to_end(key)
        if previous is not None and previous[0] == RELEASED:
            self._refactorizations.inc()

    def measured(self, key: Hashable, version: int) -> bool:
        """Whether the entry's last measurement was taken at ``version``."""
        with self._lock:
            entry = self._lru.get(key)
            return entry is not None and entry[1] == version

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

    def next_victim(self, exclude: set[Hashable]) -> Hashable | None:
        """The coldest full entry not in ``exclude``.

        ``None`` when there is none (every full entry is in use) — the
        budget is then temporarily exceeded rather than blocking the solve
        that needs the memory.
        """
        with self._lock:
            for key, (state, _) in self._lru.items():
                if state == FULL and key not in exclude:
                    return key
        return None

    def mark_released(self, key: Hashable, version: int | None = None) -> None:
        """Record a release: 0 bytes (at ``version``), state ``released``."""
        self.ledger.record(key, EntryBytes())
        with self._lock:
            if key in self._lru:
                self._lru[key] = (RELEASED, version)
        self._releases.inc()
