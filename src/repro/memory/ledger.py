"""Byte-accurate accounting of resident factor storage per cached solver.

The :class:`FactorLedger` mirrors the accounting idioms of
:mod:`repro.gpu.memory` (used/peak counters behind a lock) but measures the
*actual* NumPy buffers a prepared :class:`~repro.feti.solver.FetiSolver`
keeps resident, split into three classes:

* **factor bytes** — the ``n x (kd + 1)`` band of ``L`` of every
  per-subdomain sparse solver;
* **pack bytes** — the dense dual-operator blocks ``F̃ᵢ`` the batched
  engine holds: its padded pack of the small ones plus every large one,
  unpadded;
* **arena bytes** — reusable scratch workspaces (padded gather/scatter
  buffers of the batched apply engine).

Unlike the simulated GPU pools nothing is rounded to an allocation
granularity: the ledger reports ``ndarray.nbytes`` sums exactly, so the
bench's resident-bytes reduction invariant measures real storage.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Hashable

__all__ = ["EntryBytes", "FactorLedger", "measure_solver"]


@dataclass(frozen=True)
class EntryBytes:
    """Resident bytes of one cached ``(workload, spec)`` solver entry."""

    factor_bytes: int = 0
    pack_bytes: int = 0
    arena_bytes: int = 0

    @property
    def total(self) -> int:
        """All resident bytes of the entry."""
        return self.factor_bytes + self.pack_bytes + self.arena_bytes

    def to_dict(self) -> dict[str, int]:
        return {
            "factor_bytes": self.factor_bytes,
            "pack_bytes": self.pack_bytes,
            "arena_bytes": self.arena_bytes,
            "total_bytes": self.total,
        }


def measure_solver(solver: Any) -> EntryBytes:
    """Measure the resident storage of a prepared FETI solver.

    Delegates to the dual operator's ``storage_nbytes()`` (every backend
    reports its own factor/pack/arena split); an unprepared solver measures
    as empty.
    """
    operator = getattr(solver, "operator", solver)
    report = operator.storage_nbytes()
    return EntryBytes(
        factor_bytes=int(report.get("factor", 0)),
        pack_bytes=int(report.get("pack", 0)),
        arena_bytes=int(report.get("arena", 0)),
    )


class FactorLedger:
    """Track resident entry bytes with used/peak semantics.

    Thread-safe: the session's budget enforcement re-measures entries (after
    a solve that changed their storage) while other workloads may be
    solving concurrently.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: dict[Hashable, EntryBytes] = {}
        self._resident = 0
        self._peak = 0

    # ------------------------------------------------------------------ #
    @property
    def resident_bytes(self) -> int:
        """Sum of all recorded entries' bytes."""
        return self._resident

    @property
    def peak_bytes(self) -> int:
        """Highest simultaneous resident bytes observed."""
        return self._peak

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def entry(self, key: Hashable) -> EntryBytes | None:
        """The recorded measurement of one entry (``None`` when unknown)."""
        with self._lock:
            return self._entries.get(key)

    def entries(self) -> dict[Hashable, EntryBytes]:
        """Snapshot of every recorded entry."""
        with self._lock:
            return dict(self._entries)

    # ------------------------------------------------------------------ #
    def record(self, key: Hashable, entry: EntryBytes) -> EntryBytes:
        """Insert or update one entry's measurement."""
        with self._lock:
            previous = self._entries.get(key)
            self._resident += entry.total - (previous.total if previous else 0)
            self._peak = max(self._peak, self._resident)
            self._entries[key] = entry
        return entry
