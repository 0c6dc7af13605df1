"""Simulated-time bookkeeping.

The dual operator computes its numbers along one of two numeric paths; the
cost replays of :mod:`repro.feti.operators.replay` charge analytic costs
(CPU cost model + GPU discrete-event streams) to a simulated clock from the
subdomain shapes alone.  These helpers keep that bookkeeping tidy:

* :class:`ThreadClocks` — per-virtual-thread CPU clocks of the replays'
  subdomain loops (subdomains are assigned round-robin, exactly like the
  OpenMP loop of the paper with one CUDA stream per thread).  A replay
  advances them item by item with :meth:`~ThreadClocks.advance`, a whole
  loop of costs at once with :meth:`~ThreadClocks.advance_each` (bitwise the
  item-by-item sums) or, where a loop also drives device streams, on the
  plain floats of :attr:`ThreadClocks.clocks`;
* :class:`PhaseTiming` — the result of one phase (preparation, preprocessing
  or application) with an optional per-kernel breakdown;
* :class:`TimingLedger` — accumulates phases and answers the questions the
  benchmarks ask (total preprocessing time, time per application, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

__all__ = ["ThreadClocks", "PhaseTiming", "TimingLedger"]


class ThreadClocks:
    """Per-thread simulated CPU clocks for a parallel loop.

    All clocks start at a common origin.  Work items (subdomains) are
    assigned round-robin: item ``i`` runs on thread ``i % n_threads``.  The
    elapsed time of the loop is the maximum clock minus the origin.
    """

    def __init__(self, n_threads: int, origin: float = 0.0) -> None:
        if n_threads < 1:
            raise ValueError("need at least one thread")
        self.n_threads = int(n_threads)
        self.origin = float(origin)
        self.clocks = [float(origin)] * self.n_threads

    def thread_of(self, item_index: int) -> int:
        """Thread that processes the given work item."""
        return item_index % self.n_threads

    def now(self, item_index: int) -> float:
        """Current simulated time of the thread owning ``item_index``."""
        return self.clocks[self.thread_of(item_index)]

    def advance(self, item_index: int, seconds: float) -> float:
        """Advance the owning thread's clock; returns the new time."""
        if seconds < 0.0:
            raise ValueError("cannot advance a clock backwards")
        t = self.thread_of(item_index)
        self.clocks[t] += seconds
        return self.clocks[t]

    def advance_many(self, costs, start_index: int = 0) -> None:
        """Advance all clocks from a per-item cost array in one shot.

        Equivalent to ``advance(start_index + i, costs[i])`` for every item,
        with the same round-robin thread assignment; the per-thread totals are
        accumulated vectorized instead of one Python call per item.
        """
        costs = np.asarray(costs, dtype=float)
        if costs.size and float(costs.min()) < 0.0:
            raise ValueError("cannot advance a clock backwards")
        for t in range(self.n_threads):
            first = (t - start_index) % self.n_threads
            chunk = costs[first :: self.n_threads]
            if chunk.size:
                self.clocks[t] += float(chunk.sum())

    def advance_each(self, costs) -> None:
        """``advance(i, costs[i])`` for every item ``i``, in item order, bit for bit.

        Each thread's clock gets its items' costs added one at a time:
        ``np.cumsum`` adds left to right (where :meth:`advance_many`'s
        ``sum`` adds pairwise and rounds differently past eight items).
        """
        costs = np.asarray(costs, dtype=float)
        if not costs.size:
            return
        if float(costs.min()) < 0.0:
            raise ValueError("cannot advance a clock backwards")
        n = self.n_threads
        # Row 0 holds the clocks, row r + 1 the costs of items r·n … r·n + n − 1;
        # the padding is +0.0, which changes no sum.
        rows = np.zeros((1 + -(-costs.size // n), n))
        rows[0] = self.clocks
        rows.reshape(-1)[n : n + costs.size] = costs
        self.clocks = np.cumsum(rows, axis=0)[-1].tolist()

    @property
    def elapsed(self) -> float:
        """Elapsed simulated time of the whole loop."""
        return max(self.clocks) - self.origin

    @property
    def max_time(self) -> float:
        """Latest clock value (absolute simulated time)."""
        return max(self.clocks)


@dataclass
class PhaseTiming:
    """Timing of one solver phase.

    Attributes
    ----------
    name:
        Phase label (``"preparation"``, ``"preprocessing"``, ``"apply"``).
    simulated_seconds:
        Simulated elapsed time of the phase.
    wall_seconds:
        Wall-clock time actually spent executing the numerics (informative
        only; the benchmark figures use simulated time).
    breakdown:
        Optional per-component simulated times.
    """

    name: str
    simulated_seconds: float
    wall_seconds: float = 0.0
    breakdown: dict[str, float] = field(default_factory=dict)

    def add(self, key: str, seconds: float) -> None:
        """Accumulate a component into the breakdown."""
        self.breakdown[key] = self.breakdown.get(key, 0.0) + seconds


@dataclass
class TimingLedger:
    """Accumulated phase timings of one dual-operator instance.

    Every phase goes through :meth:`record`, which keeps per-name running
    aggregates (``count`` / ``total`` / ``last``, all O(1)).  ``phases`` is
    the append-only record of the *setup* phases only (preparation,
    preprocessing): the per-iteration ``apply`` / ``apply_multi`` phases are
    folded into the aggregates and dropped, so a long-lived session's ledger
    stays the same size however many solves it serves.
    """

    #: Per-iteration phase names: aggregated, never retained in ``phases``.
    AGGREGATED_ONLY: ClassVar[frozenset[str]] = frozenset({"apply", "apply_multi"})

    phases: list[PhaseTiming] = field(default_factory=list, init=False)
    _count: dict[str, int] = field(default_factory=dict, init=False, repr=False)
    _total: dict[str, float] = field(default_factory=dict, init=False, repr=False)
    _last: dict[str, PhaseTiming] = field(default_factory=dict, init=False, repr=False)
    _marked: tuple[str, ...] = field(default=(), init=False, repr=False)
    _since_mark: float = field(default=0.0, init=False, repr=False)

    def record(self, phase: PhaseTiming) -> PhaseTiming:
        """Fold a phase into the aggregates (and keep it, if a setup phase)."""
        name = phase.name
        if name not in self.AGGREGATED_ONLY:
            self.phases.append(phase)
        self._count[name] = self._count.get(name, 0) + 1
        self._total[name] = self._total.get(name, 0.0) + phase.simulated_seconds
        self._last[name] = phase
        if name in self._marked:
            self._since_mark += phase.simulated_seconds
        return phase

    def mark(self, *names: str) -> None:
        """Start summing the phases with these names, from 0.0 in record order.

        One window per ledger; :meth:`since_mark` reads it.  A solve uses it
        for "the applies of *this* PCPG run" — a left-to-right sum from zero,
        which ``total()`` after minus ``total()`` before is not, bit for bit.
        """
        self._marked = names
        self._since_mark = 0.0

    def since_mark(self) -> float:
        """Simulated seconds of the marked phases recorded since :meth:`mark`."""
        return self._since_mark

    def total(self, name: str) -> float:
        """Total simulated seconds of all phases with the given name."""
        return self._total.get(name, 0.0)

    def count(self, name: str) -> int:
        """Number of recorded phases with the given name."""
        return self._count.get(name, 0)

    def mean(self, name: str) -> float:
        """Mean simulated seconds of the phases with the given name."""
        n = self.count(name)
        return self.total(name) / n if n else 0.0

    def last(self, name: str) -> PhaseTiming | None:
        """The most recent phase with the given name, if any."""
        return self._last.get(name)
