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
recorded for the ablation benchmarks.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

__all__ = ["AllocationError", "Allocation", "MemoryPool", "TemporaryArena"]


class AllocationError(RuntimeError):
    """Raised when an allocation can never be satisfied."""


@dataclass
class Allocation:
    """A handle to a block of simulated GPU memory."""

    nbytes: int
    label: str
    pool: "MemoryPool | TemporaryArena" = field(repr=False)
    released: bool = False

    def release(self) -> None:
        """Return the block to its pool (idempotent)."""
        if not self.released:
            self.released = True
            self.pool._release(self)  # noqa: SLF001 - cooperative release


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
        nbytes = _round_up(nbytes)
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
        nbytes = _round_up(nbytes)
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

    def _release(self, allocation: Allocation) -> None:
        with self._cond:
            self._used -= allocation.nbytes
            self._cond.notify_all()


def _round_up(nbytes: int, granularity: int = 256) -> int:
    nbytes = int(nbytes)
    if nbytes < 0:
        raise ValueError("allocation size must be non-negative")
    return ((nbytes + granularity - 1) // granularity) * granularity
