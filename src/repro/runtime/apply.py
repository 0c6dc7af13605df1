"""Sharded execution of the batched dense dual-operator apply.

This module shards the explicit apply's one batched GEMV — the
``np.matmul`` over the padded ``(n_subdomains, λ_max, λ_max)`` pack of
every subdomain's ``F̃ᵢ``, all clusters in one — across the runtime
executor's workers:

``serial``
    Falls through to :meth:`~repro.feti.operators.batch.BatchedDenseApply.
    matvec` — the bit-equal reference.
``threads``
    The pack is split into contiguous spans (:func:`~repro.runtime.shard.
    balanced_spans`) and each span's ``matmul`` runs as an in-process
    future writing its disjoint output slice.  Batched ``matmul`` applies
    the blocks independently along the leading axis, so the chunked result
    is bit-identical to the serial one.
``processes``
    The block pack, the padded input and the padded output live in a
    :class:`~repro.runtime.shm.SharedArena` owned by the pack; workers
    attach once (cached by segment name) and each task's payload is a few
    slot descriptors and a span — no array ever crosses the pipe.  The
    pack is (re)written into the arena only when its version changes, i.e.
    after a preprocessing round refreshed the local operators.

Sharding is an execution strategy, not a numerical change: every path
computes the same per-item products on the same float64 data.  Tiny packs
are not worth a dispatch — below :func:`min_shard_items` every backend
falls through to the serial reference.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

import numpy as np

from repro.runtime.shard import balanced_spans
from repro.runtime.shm import SharedArena, attach_cached, slot_view

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.feti.operators.batch import BatchedDenseApply
    from repro.runtime.executor import Executor

__all__ = ["min_shard_items", "sharded_matvec", "sharded_matvec_multi"]


def min_shard_items() -> int:
    """Smallest block pack worth sharding (``REPRO_APPLY_MIN_BATCH``).

    Below this many subdomains in the pack (every cluster's together) the
    dispatch overhead (futures, and for processes one IPC round-trip per
    span) exceeds the kernel time, so the apply falls through to the serial
    batched reference.
    """
    raw = os.environ.get("REPRO_APPLY_MIN_BATCH", "").strip()
    try:
        return max(1, int(raw)) if raw else 16
    except ValueError:
        return 16


def sharded_matvec(
    dense: "BatchedDenseApply",
    p_concat: np.ndarray,
    executor: "Executor | None",
) -> np.ndarray:
    """The batched dense apply over the one pack, sharded on the executor.

    Returns exactly what ``dense.matvec(p_concat)`` returns; the executor
    only decides *where* the per-span ``matmul`` runs.
    """
    n = dense.map.n_items
    if (
        executor is None
        or executor.workers <= 1
        or executor.backend == "serial"
        or n < min_shard_items()
    ):
        return dense.matvec(p_concat)
    spans = balanced_spans(n, executor.workers)
    if executor.backend == "threads":
        return dense.matvec_chunked(p_concat, spans, executor.submit)
    return _process_matvec(dense, p_concat, executor, spans)


def sharded_matvec_multi(
    dense: "BatchedDenseApply",
    p_stack: np.ndarray,
    executor: "Executor | None",
) -> np.ndarray:
    """Stacked multi-RHS apply, sharded across executor workers.

    Thread workers chunk the batched GEMM like the single-RHS path.  The
    process backend keeps the pack and the padded multi-RHS input/output
    in the same :class:`~repro.runtime.shm.SharedArena` residence the
    single-RHS apply uses — the wide slots are sized for a column capacity
    and reused across calls, so a coalesced block solve still pickles only
    slot descriptors and spans per iteration.
    """
    n = dense.map.n_items
    if (
        executor is None
        or executor.workers <= 1
        or executor.backend == "serial"
        or n < min_shard_items()
    ):
        return dense.matvec_multi(p_stack)
    spans = balanced_spans(n, executor.workers)
    if executor.backend != "threads":
        return _process_matvec_multi(dense, p_stack, executor, spans)
    P = dense.map.pad_multi(p_stack)
    Q = np.empty_like(P)
    blocks = dense.blocks

    def run(lo: int, hi: int):
        def task() -> None:
            np.matmul(blocks[lo:hi], P[lo:hi], out=Q[lo:hi])

        return task

    futures = [executor.submit(run(lo, hi)) for lo, hi in spans]
    for future in futures:
        future.result()
    return dense.map.unpad_multi(Q)


# --------------------------------------------------------------------- #
# Process backend: arena-resident pack + slot-descriptor tasks           #
# --------------------------------------------------------------------- #
class _ProcessApplyState:
    """The shared-memory residence of one block pack (parent side)."""

    def __init__(self, dense: "BatchedDenseApply") -> None:
        m = dense.map
        arena = SharedArena()
        # Slots are dtype-aware: a demoting precision policy packs the
        # blocks as float32, and the workers must compute on the same
        # representation the parent's serial fallback would.
        self.blocks_slot = arena.allocate_of(dense.blocks)
        self.p_slot = arena.allocate((m.n_items, m.max_size, 1))
        self.q_slot = arena.allocate((m.n_items, m.max_size, 1))
        arena.create()
        self.arena = arena
        self.version = -1  # force the first pack write


def _matvec_span(args: tuple) -> bool:
    """Worker task: one span of the arena-resident batched GEMV."""
    name, blocks_slot, p_slot, q_slot, lo, hi = args
    buf = attach_cached(name)
    blocks = slot_view(buf, blocks_slot)
    P = slot_view(buf, p_slot)
    Q = slot_view(buf, q_slot)
    np.matmul(blocks[lo:hi], P[lo:hi], out=Q[lo:hi])
    return True


def _process_matvec(
    dense: "BatchedDenseApply",
    p_concat: np.ndarray,
    executor: "Executor",
    spans: list[tuple[int, int]],
) -> np.ndarray:
    m = dense.map
    state: _ProcessApplyState | None = getattr(dense, "_process_state", None)
    if (
        state is None
        or state.blocks_slot.shape != dense.blocks.shape
        or state.blocks_slot.dtype != dense.blocks.dtype.name
    ):
        state = _ProcessApplyState(dense)
        dense._process_state = state
    if state.version != dense.version:
        state.arena.view(state.blocks_slot)[...] = dense.blocks
        state.version = dense.version
    P = state.arena.view(state.p_slot)
    m.pad(p_concat, out=P.reshape(m.n_items, m.max_size))
    name = state.arena.name
    futures = [
        executor.submit(
            _matvec_span,
            (name, state.blocks_slot, state.p_slot, state.q_slot, lo, hi),
        )
        for lo, hi in spans
    ]
    for future in futures:
        future.result()
    Q = state.arena.view(state.q_slot)
    # unpad fancy-indexes into a fresh array, so nothing returned aliases
    # the arena and the next apply can overwrite the slots freely.
    return m.unpad(Q.reshape(m.n_items, m.max_size))


class _ProcessApplyMultiState:
    """Arena residence of one block pack plus wide multi-RHS slots.

    The padded input/output slots are sized for ``k_cap`` columns and
    sliced to the call's actual column count — a queue-coalesced block
    solve whose batch width fluctuates reuses one arena instead of
    re-creating a segment per width.  The state is rebuilt (with a larger
    capacity) only when a call exceeds the cap.
    """

    def __init__(self, dense: "BatchedDenseApply", k_cap: int) -> None:
        m = dense.map
        arena = SharedArena()
        self.blocks_slot = arena.allocate_of(dense.blocks)
        self.p_slot = arena.allocate((m.n_items, m.max_size, k_cap))
        self.q_slot = arena.allocate((m.n_items, m.max_size, k_cap))
        arena.create()
        self.arena = arena
        self.k_cap = k_cap
        self.version = -1  # force the first pack write


def _matvec_multi_span(args: tuple) -> bool:
    """Worker task: one span of the arena-resident batched GEMM."""
    name, blocks_slot, p_slot, q_slot, k, lo, hi = args
    buf = attach_cached(name)
    blocks = slot_view(buf, blocks_slot)
    P = slot_view(buf, p_slot)[:, :, :k]
    Q = slot_view(buf, q_slot)[:, :, :k]
    np.matmul(blocks[lo:hi], P[lo:hi], out=Q[lo:hi])
    return True


def _process_matvec_multi(
    dense: "BatchedDenseApply",
    p_stack: np.ndarray,
    executor: "Executor",
    spans: list[tuple[int, int]],
) -> np.ndarray:
    m = dense.map
    k = int(p_stack.shape[1])
    state: _ProcessApplyMultiState | None = getattr(dense, "_process_multi_state", None)
    if (
        state is None
        or state.blocks_slot.shape != dense.blocks.shape
        or state.blocks_slot.dtype != dense.blocks.dtype.name
        or k > state.k_cap
    ):
        k_cap = max(k, state.k_cap if state is not None else 0, 4)
        state = _ProcessApplyMultiState(dense, k_cap)
        dense._process_multi_state = state
    if state.version != dense.version:
        state.arena.view(state.blocks_slot)[...] = dense.blocks
        state.version = dense.version
    # pad_multi produces a fresh contiguous (n, λ_max, k) block; copying it
    # into the (strided) wide slot is one memcpy of the *vectors* — the
    # pack, the bulk payload, stays resident across iterations.
    state.arena.view(state.p_slot)[:, :, :k] = m.pad_multi(p_stack)
    name = state.arena.name
    futures = [
        executor.submit(
            _matvec_multi_span,
            (name, state.blocks_slot, state.p_slot, state.q_slot, k, lo, hi),
        )
        for lo, hi in spans
    ]
    for future in futures:
        future.result()
    Q = state.arena.view(state.q_slot)[:, :, :k]
    # unpad_multi reshapes the strided view into a fresh array, so nothing
    # returned aliases the arena.
    return m.unpad_multi(Q)
