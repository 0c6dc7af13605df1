"""GPU memory management: persistent pool and blocking temporary arena.

Section IV-A of the paper splits GPU memory into a *persistent* part
(factors, ``B̃ᵢ``, ``F̃ᵢ``, dual vectors, library workspaces — allocated in
the preparation phase, freed at the end of the run) and a *temporary* part
managed by a custom allocator: temporary buffers live only for the duration
of a kernel, memory is reused without calling the CUDA allocator, and a
thread that cannot be served **blocks** until other threads free enough
memory.

Both behaviours are reproduced here.  The arena uses a condition variable so
the blocking semantics are real under the threaded subdomain loop of
:mod:`repro.cluster`; statistics (peak usage, number of blocking waits) are
recorded for the ablation benchmarks.  A cost replay that prices equal
buffers once (:func:`buffer`) charges them in one call per loop:
:meth:`MemoryPool.allocate_batch` and :meth:`TemporaryArena.hold_batch`
leave every counter where the one-by-one calls would.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

__all__ = ["AllocationError", "Allocation", "MemoryPool", "TemporaryArena", "buffer", "round_up"]


class AllocationError(RuntimeError):
    """Raised when an allocation can never be satisfied."""


@dataclass
class Allocation:
    """A handle to a block of simulated GPU memory.

    ``pool`` is ``None`` for a :func:`buffer`: a size its holders were
    charged for in a batch, which no single release returns.
    """

    nbytes: int
    label: str
    pool: "MemoryPool | TemporaryArena | None" = field(default=None, repr=False)
    released: bool = False

    def release(self) -> None:
        """Return the block to its pool (idempotent)."""
        if not self.released:
            self.released = True
            if self.pool is not None:
                self.pool._release(self)  # noqa: SLF001 - cooperative release


def buffer(nbytes: int, label: str = "") -> Allocation:
    """The handle of a buffer of ``nbytes`` (rounded as a pool rounds it),
    charged to no pool: what :meth:`MemoryPool.allocate_batch` charges once
    per holder."""
    return Allocation(nbytes=round_up(nbytes), label=label)


class MemoryPool:
    """Persistent device memory: allocate-once, free-at-exit.

    Over-subscription raises immediately — persistent structures must fit in
    the device memory (minus the share reserved for the temporary arena).
    """

    def __init__(self, capacity_bytes: int, name: str = "persistent") -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = int(capacity_bytes)
        self.name = name
        self._lock = threading.Lock()
        self._used = 0
        self._peak = 0
        self._allocations = 0

    # ------------------------------------------------------------------ #
    @property
    def used_bytes(self) -> int:
        """Currently allocated bytes."""
        return self._used

    @property
    def peak_bytes(self) -> int:
        """Highest simultaneous usage observed."""
        return self._peak

    @property
    def free_bytes(self) -> int:
        """Remaining capacity."""
        return self.capacity_bytes - self._used

    @property
    def allocation_count(self) -> int:
        """Number of allocations served."""
        return self._allocations

    def allocate(self, nbytes: int, label: str = "") -> Allocation:
        """Allocate ``nbytes`` (rounded up to 256-byte granularity)."""
        nbytes = round_up(nbytes)
        with self._lock:
            if nbytes > self.capacity_bytes - self._used:
                raise AllocationError(
                    f"{self.name} pool exhausted: requested {nbytes} bytes, "
                    f"free {self.capacity_bytes - self._used}"
                )
            self._used += nbytes
            self._peak = max(self._peak, self._used)
            self._allocations += 1
        return Allocation(nbytes=nbytes, label=label, pool=self)

    def allocate_batch(self, nbytes: int, count: int) -> None:
        """Serve ``count`` allocations of ``nbytes`` in total (each already
        rounded, e.g. a :func:`buffer`'s size) at once.

        Used, peak and allocation counters end where ``count``
        :meth:`allocate` calls would leave them; if they do not all fit,
        nothing is allocated and :class:`AllocationError` is raised.
        """
        with self._lock:
            if nbytes > self.capacity_bytes - self._used:
                raise AllocationError(
                    f"{self.name} pool exhausted: requested {nbytes} bytes in "
                    f"{count} allocations, free {self.capacity_bytes - self._used}"
                )
            self._used += nbytes
            self._peak = max(self._peak, self._used)
            self._allocations += count

    def _release(self, allocation: Allocation) -> None:
        with self._lock:
            self._used -= allocation.nbytes


class TemporaryArena:
    """Blocking allocator for kernel-lifetime buffers.

    ``allocate`` blocks the calling thread until enough memory is available
    (released by other threads), matching the behaviour described in the
    paper.  A request larger than the arena itself raises
    :class:`AllocationError` instead of deadlocking.
    """

    def __init__(self, capacity_bytes: int, name: str = "temporary") -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = int(capacity_bytes)
        self.name = name
        self._cond = threading.Condition()
        self._used = 0
        self._peak = 0
        self._allocations = 0
        self._blocking_waits = 0

    # ------------------------------------------------------------------ #
    @property
    def used_bytes(self) -> int:
        """Currently allocated bytes."""
        return self._used

    @property
    def peak_bytes(self) -> int:
        """Highest simultaneous usage observed."""
        return self._peak

    @property
    def free_bytes(self) -> int:
        """Remaining capacity."""
        return self.capacity_bytes - self._used

    @property
    def allocation_count(self) -> int:
        """Number of allocations served."""
        return self._allocations

    @property
    def blocking_waits(self) -> int:
        """How many allocations had to wait for memory to be released."""
        return self._blocking_waits

    def allocate(
        self, nbytes: int, label: str = "", timeout: float | None = 60.0
    ) -> Allocation:
        """Allocate ``nbytes``, blocking until the request can be served."""
        nbytes = round_up(nbytes)
        if nbytes > self.capacity_bytes:
            raise AllocationError(
                f"temporary buffer of {nbytes} bytes exceeds the arena "
                f"capacity of {self.capacity_bytes} bytes"
            )
        with self._cond:
            waited = False
            while nbytes > self.capacity_bytes - self._used:
                waited = True
                if not self._cond.wait(timeout=timeout):
                    raise AllocationError(
                        f"timed out waiting for {nbytes} bytes of temporary memory"
                    )
            if waited:
                self._blocking_waits += 1
            self._used += nbytes
            self._peak = max(self._peak, self._used)
            self._allocations += 1
        return Allocation(nbytes=nbytes, label=label, pool=self)

    def hold_batch(self, peak_bytes: int, count: int) -> None:
        """Serve ``count`` kernel-lifetime buffers, all released again, at
        most ``peak_bytes`` (rounded sizes) of them live at once.

        The counters end where the one-by-one :meth:`allocate` /
        ``release`` calls of a single thread would leave them.  A thread
        alone cannot wait for memory nobody else will free: if the peak
        does not fit, :class:`AllocationError` is raised at once.
        """
        with self._cond:
            if peak_bytes > self.capacity_bytes - self._used:
                raise AllocationError(
                    f"temporary buffers of {peak_bytes} bytes at once exceed the "
                    f"free {self.capacity_bytes - self._used} bytes of the arena"
                )
            self._peak = max(self._peak, self._used + peak_bytes)
            self._allocations += count

    def _release(self, allocation: Allocation) -> None:
        with self._cond:
            self._used -= allocation.nbytes
            self._cond.notify_all()


def round_up(nbytes: int, granularity: int = 256) -> int:
    """``nbytes`` rounded up to the pools' allocation granularity."""
    nbytes = int(nbytes)
    if nbytes < 0:
        raise ValueError("allocation size must be non-negative")
    return ((nbytes + granularity - 1) // granularity) * granularity
