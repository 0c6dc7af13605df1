"""Shared-memory transport of the process executor.

The preprocessing results of a shard — the stacked factor panels (``(k,
panel_entries)`` float64) and the assembled local dual operators (one
``(n_λ, n_λ)`` ``local_F`` block per subdomain) — are bulk arrays.
Pickling them back through the process pool's result pipe would copy every
byte twice; instead the parent allocates one ``multiprocessing.shared_memory``
arena per preprocessing round, the workers write their slots directly, and
the parent's solvers adopt NumPy *views* into the arena.  No array is
pickled back.

The transport runs both ways within a round: bulk *inputs* (the stacked
stiffness values and the gluing matrices ``B̃ᵢ``) are written by the parent
into input slots and attached zero-copy by the workers, so a shard task
pickles only slot descriptors, index arrays and scalars in either
direction.  Slots are dtype-aware (``float64`` panels next to
``int32``/``int64`` index maps) and 8-byte aligned.  Only preprocessing
uses the arena: the dual-operator apply always runs in the caller's
process.

CPython 3.11/3.12 quirk: attaching a :class:`~multiprocessing.shared_memory.
SharedMemory` segment registers it with the process's resource tracker, which
would unlink the segment when the *worker* exits even though the parent still
owns it.  :func:`attach_view` therefore unregisters the attachment — the
parent (creator) remains the sole owner and unlinks the segment when the
arena is replaced or the operator is garbage collected.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

__all__ = [
    "SharedArena",
    "ArenaSlot",
    "attach_view",
    "slot_view",
    "write_slot",
]


@dataclass(frozen=True)
class ArenaSlot:
    """One array slot inside an arena: a typed block at a fixed byte offset."""

    offset: int  # in bytes
    shape: tuple[int, ...]
    dtype: str = "float64"

    @property
    def size(self) -> int:
        """Number of elements of the slot."""
        n = 1
        for s in self.shape:
            n *= int(s)
        return n

    @property
    def nbytes(self) -> int:
        """Byte size of the slot."""
        return self.size * np.dtype(self.dtype).itemsize


class SharedArena:
    """A parent-owned shared-memory block carved into typed slots.

    Use :meth:`allocate` while laying out the round's inputs and outputs,
    then :meth:`create` once to back the layout with a shared segment.  The
    parent reads and writes slots through :meth:`view`; workers receive
    ``(name, slot)`` pairs, read through :func:`slot_view` and write through
    :func:`write_slot`.  The segment is unlinked when :meth:`release` is
    called or the arena is garbage collected, whichever comes first.
    """

    def __init__(self) -> None:
        self._slots: list[ArenaSlot] = []
        self._total = 0
        self._shm: shared_memory.SharedMemory | None = None
        self._finalizer: weakref.finalize | None = None

    # ------------------------------------------------------------------ #
    # Layout                                                              #
    # ------------------------------------------------------------------ #
    def allocate(
        self, shape: tuple[int, ...], dtype: str | np.dtype = "float64"
    ) -> ArenaSlot:
        """Reserve one typed slot (before :meth:`create`).

        Slots start on 8-byte boundaries regardless of dtype, so mixing
        float64 panels with int64/int32 index maps never misaligns a view.
        """
        if self._shm is not None:
            raise RuntimeError("arena layout is frozen once create() has run")
        slot = ArenaSlot(
            offset=self._total,
            shape=tuple(int(s) for s in shape),
            dtype=np.dtype(dtype).name,
        )
        self._slots.append(slot)
        self._total += (slot.nbytes + 7) & ~7  # keep 8-byte alignment
        return slot

    def allocate_of(self, array: np.ndarray) -> ArenaSlot:
        """Reserve a slot shaped and typed like an existing array."""
        return self.allocate(array.shape, array.dtype)

    @property
    def nbytes(self) -> int:
        """Total size of the arena in bytes."""
        return max(self._total, 1)

    def create(self) -> "SharedArena":
        """Back the layout with a shared-memory segment (parent side)."""
        if self._shm is None:
            self._shm = shared_memory.SharedMemory(create=True, size=self.nbytes)
            self._finalizer = weakref.finalize(
                self, _release_segment, self._shm
            )
        return self

    @property
    def name(self) -> str:
        """OS name of the backing segment (what workers attach to)."""
        if self._shm is None:
            raise RuntimeError("create() has not been called")
        return self._shm.name

    # ------------------------------------------------------------------ #
    # Access                                                              #
    # ------------------------------------------------------------------ #
    def view(self, slot: ArenaSlot) -> np.ndarray:
        """Parent-side zero-copy view of one slot."""
        if self._shm is None:
            raise RuntimeError("create() has not been called")
        flat = np.ndarray(
            (slot.size,),
            dtype=np.dtype(slot.dtype),
            buffer=self._shm.buf,
            offset=slot.offset,
        )
        return flat.reshape(slot.shape)

    def release(self) -> None:
        """Close and unlink the segment (idempotent).

        Any views previously handed out become invalid; callers replace the
        arena atomically (build the new round's arena, re-point consumers,
        then release the old one).
        """
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
        self._shm = None


def _release_segment(shm: shared_memory.SharedMemory) -> None:
    # Unlink first (frees the name; the mapping survives for live views),
    # then close the parent's mapping if no exported views pin it.
    try:
        shm.unlink()
    except (FileNotFoundError, OSError):  # already gone (e.g. interpreter exit)
        pass
    try:
        shm.close()
    except BufferError:  # adopted views still alive; freed when they are
        pass


# --------------------------------------------------------------------- #
# Worker side                                                            #
# --------------------------------------------------------------------- #
def attach_view(name: str) -> tuple[shared_memory.SharedMemory, memoryview]:
    """Attach an existing arena by name without adopting ownership.

    Returns the segment handle (close it when done — never unlink) and its
    buffer.  CPython < 3.13 registers the attachment with the resource
    tracker as if it were owned; the pool workers share the parent's
    tracker (:class:`~repro.runtime.executor.ProcessExecutor` starts it
    before the workers exist), so the duplicate registration is a no-op and
    the parent's unlink remains the single release point.
    """
    shm = shared_memory.SharedMemory(name=name)
    return shm, shm.buf


def slot_view(buf: memoryview, slot: ArenaSlot) -> np.ndarray:
    """Zero-copy view of one slot of an attached arena (worker side)."""
    flat = np.ndarray(
        (slot.size,), dtype=np.dtype(slot.dtype), buffer=buf, offset=slot.offset
    )
    return flat.reshape(slot.shape)


def write_slot(buf: memoryview, slot: ArenaSlot, values: np.ndarray) -> None:
    """Write one slot of an attached arena (worker side)."""
    slot_view(buf, slot)[...] = values


def fill_slot(name: str, slot: ArenaSlot, value: float) -> bool:
    """Attach-fill-close one slot with a constant (a self-contained task).

    Importable by any worker start method — used to probe the transport
    from tests and health checks.
    """
    shm, buf = attach_view(name)
    try:
        write_slot(buf, slot, np.full(slot.shape, float(value)))
        return True
    finally:
        shm.close()
