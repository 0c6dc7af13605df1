"""Batched subdomain execution engine.

Walking the subdomains in a Python loop — scatter the global dual vector,
apply one small kernel, gather the result, advance one simulated thread
clock — costs interpreter overhead linear in the number of subdomains (those
loops are the test oracle, ``tests/oracles/apply.py``).  This module packs
the per-subdomain work into contiguous arrays so the hot PCPG apply path runs
as a handful of vectorized NumPy operations regardless of the subdomain count:

* :class:`FlatIndexMap` — the scatter/gather index maps of a group of
  subdomains flattened into fancy-index arrays (built from
  :func:`repro.decomposition.gluing.flat_scatter_maps`), so ``local_dual`` /
  ``accumulate_dual`` over all subdomains become a single ``take`` and a
  single ``np.bincount``;
* :class:`BatchedDenseApply` — equal/padded-shape dense ``local_F`` blocks
  packed into one 3-D array, applied with a single batched GEMV
  (``np.matmul`` over the leading axis);
* :class:`SubdomainBatchEngine` — the above over every subdomain at once.

The engine is numerics only: the simulated time of an apply is the
backend's timeline plan, replayed once per preprocessing round (see
:meth:`~repro.feti.operators.base.DualOperatorBase._apply_impl`).
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from repro.decomposition.gluing import flat_scatter_maps

__all__ = ["FlatIndexMap", "BatchedDenseApply", "SubdomainBatchEngine"]


class FlatIndexMap:
    """Flattened scatter/gather maps of a group of per-subdomain index arrays.

    Parameters
    ----------
    id_arrays:
        One integer index array per subdomain (e.g. ``lambda_ids``, or the
        positions inside a cluster-wide dual vector).
    """

    def __init__(self, id_arrays: Sequence[np.ndarray]) -> None:
        flat_ids, offsets = flat_scatter_maps(id_arrays)
        self._init_from_flat(flat_ids, offsets)

    @classmethod
    def from_flat(cls, flat_ids: np.ndarray, offsets: np.ndarray) -> "FlatIndexMap":
        """Build from already-flattened arrays (e.g. the gluing data's cache)."""
        self = cls.__new__(cls)
        self._init_from_flat(flat_ids, offsets)
        return self

    def _init_from_flat(self, flat_ids: np.ndarray, offsets: np.ndarray) -> None:
        self.flat_ids = flat_ids
        self.offsets = offsets
        self.sizes = np.diff(offsets)
        self.n_items = int(self.sizes.shape[0])
        self.max_size = int(self.sizes.max()) if self.n_items else 0
        #: Flat positions of every concatenated entry inside the padded
        #: ``(n_items, max_size)`` buffer: row ``i`` occupies columns
        #: ``[0, sizes[i])``.  Lets pad/unpad run as single fancy-index ops.
        rows = np.repeat(np.arange(self.n_items, dtype=np.int64), self.sizes)
        cols = np.arange(self.flat_ids.shape[0], dtype=np.int64) - np.repeat(
            self.offsets[:-1], self.sizes
        )
        self.pad_positions = rows * max(self.max_size, 1) + cols
        #: Complement of ``pad_positions``: the padding lanes of the
        #: ``(n_items, max_size)`` buffer that must stay zero.
        occupied = np.zeros(self.n_items * self.max_size, dtype=bool)
        occupied[self.pad_positions] = True
        self.padding_lanes = np.nonzero(~occupied)[0]

    @property
    def total(self) -> int:
        """Total number of concatenated entries."""
        return int(self.flat_ids.shape[0])

    # ------------------------------------------------------------------ #
    # Scatter / gather                                                    #
    # ------------------------------------------------------------------ #
    def gather(self, source: np.ndarray) -> np.ndarray:
        """All local vectors at once: ``concat_i source[ids_i]``."""
        return source.take(self.flat_ids)

    def scatter_add(self, target: np.ndarray, values: np.ndarray) -> None:
        """Accumulate concatenated local contributions into a 1-D ``target``.

        One ``np.bincount``: it sums every id's contributions in flat order,
        as ``np.add.at`` would, and adds the sums to ``target`` at once.
        """
        target += np.bincount(self.flat_ids, weights=values, minlength=target.shape[0])

    def gather_multi(self, source: np.ndarray) -> np.ndarray:
        """Row-wise gather of a stacked ``(n_global, k)`` multi-RHS block."""
        return source.take(self.flat_ids, axis=0)

    def scatter_add_multi(self, target: np.ndarray, values: np.ndarray) -> None:
        """Row-wise accumulate of stacked ``(total, k)`` local contributions."""
        np.add.at(target, self.flat_ids, values)

    def split(self, values: np.ndarray) -> list[np.ndarray]:
        """Per-subdomain views into a concatenated array."""
        return [
            values[self.offsets[i] : self.offsets[i + 1]]
            for i in range(self.n_items)
        ]

    def slice_of(self, item: int) -> slice:
        """The concatenated-array slice of one subdomain."""
        return slice(int(self.offsets[item]), int(self.offsets[item + 1]))

    # ------------------------------------------------------------------ #
    # Padding (for the batched dense apply)                               #
    # ------------------------------------------------------------------ #
    def pad(self, concatenated: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Spread a concatenated array into the padded 2-D layout.

        A reused ``out`` buffer has its padding lanes re-zeroed (only those:
        the data lanes are fully overwritten), so stale values can never leak
        into padded reductions.
        """
        if out is None:
            out = np.zeros((self.n_items, self.max_size))
        else:
            out.reshape(-1)[self.padding_lanes] = 0.0
        out.reshape(-1)[self.pad_positions] = concatenated
        return out

    def unpad(self, padded: np.ndarray) -> np.ndarray:
        """Collect the padded 2-D layout back into a concatenated array."""
        return padded.reshape(-1)[self.pad_positions]

    def pad_multi(self, concatenated: np.ndarray) -> np.ndarray:
        """Spread a stacked ``(total, k)`` block into ``(n_items, max, k)``."""
        k = int(concatenated.shape[1])
        out = np.zeros((self.n_items * self.max_size, k))
        out[self.pad_positions] = concatenated
        return out.reshape(self.n_items, self.max_size, k)

    def unpad_multi(self, padded: np.ndarray) -> np.ndarray:
        """Collect a padded ``(n_items, max, k)`` block back to ``(total, k)``."""
        k = int(padded.shape[2])
        return padded.reshape(self.n_items * self.max_size, k)[self.pad_positions]


class BatchedDenseApply:
    """Padded pack of per-subdomain dense square blocks + batched GEMV.

    The blocks (the assembled local dual operators ``F̃ᵢ``) are stored in one
    contiguous ``(n_items, max, max)`` array, zero-padded, so the apply phase
    is a single batched matrix-vector product instead of ``n_items`` small
    GEMVs issued from Python.
    """

    def __init__(self, index_map: FlatIndexMap, dtype=np.float64) -> None:
        self.map = index_map
        m = index_map.max_size
        #: Storage dtype of the packed blocks (fp32 under a demoting
        #: precision policy).  The dual vectors and every result stay fp64:
        #: ``np.matmul`` promotes the mixed product, so half-size packs
        #: change only the storage, not the interface.
        self.blocks = np.zeros((index_map.n_items, m, m), dtype=dtype)
        self._p_pad = np.zeros((index_map.n_items, m, 1))

    def set_block(self, item: int, block: np.ndarray) -> None:
        """Install (or refresh) one subdomain's dense block."""
        n = int(self.map.sizes[item])
        if block.shape != (n, n):
            raise ValueError(
                f"block {item} has shape {block.shape}, expected ({n}, {n})"
            )
        self.blocks[item, :n, :n] = block

    def matvec(self, p_concat: np.ndarray) -> np.ndarray:
        """One batched GEMV over all blocks.

        ``p_concat`` holds the concatenated local dual vectors; returns the
        concatenated local results.  The persistent padded buffer keeps its
        padding lanes at zero (they are never written), so only the data
        lanes are refreshed per call.
        """
        self._p_pad.reshape(-1)[self.map.pad_positions] = p_concat
        Q = np.matmul(self.blocks, self._p_pad)
        return self.map.unpad(Q.reshape(self.map.n_items, self.map.max_size))

    def matvec_multi(self, p_stack: np.ndarray) -> np.ndarray:
        """Stacked multi-RHS apply: one batched GEMM over all blocks.

        ``p_stack`` holds the concatenated local dual vectors of ``k``
        right-hand sides as a ``(total, k)`` block; returns the matching
        ``(total, k)`` results.  Amortizes the scatter/gather and the kernel
        launch over every column — the request-level analogue of the
        per-subdomain batching of :meth:`matvec`.
        """
        Q = np.matmul(self.blocks, self.map.pad_multi(p_stack))
        return self.map.unpad_multi(Q)


class SubdomainBatchEngine:
    """Batched execution engine over a FETI problem's subdomains.

    One flat scatter/gather map over every subdomain and, for the explicit
    approaches, one pack of their ``F̃ᵢ`` over that map: an apply is one
    ``take``, one padded batched GEMV and one ``bincount`` scatter, however
    many clusters the subdomains are spread over.  Both follow
    ``problem.subdomains``, which is in subdomain-index order.
    """

    def __init__(self, problem, dense_dtype=np.float64) -> None:
        self.problem = problem
        #: Storage dtype of the pack created by :meth:`require_dense`.
        self.dense_dtype = np.dtype(dense_dtype)
        #: Scatter/gather over all subdomains; the flat arrays come from the
        #: gluing data's cached maps.
        self.global_map = FlatIndexMap.from_flat(*problem.gluing.scatter_maps())
        #: Packed dense blocks (installed by the explicit backends after
        #: assembly, dropped by a storage demotion).
        self.dense: BatchedDenseApply | None = None

    def require_dense(self) -> BatchedDenseApply:
        """The packed dense blocks, creating the pack on first use."""
        if self.dense is None:
            self.dense = BatchedDenseApply(self.global_map, dtype=self.dense_dtype)
        return self.dense

    # The gluing and the kernels are static across Algorithm-2 steps, so the
    # products around the stacked ``K⁺`` solve are one SpMV each: rows in
    # ``global_map`` order, columns in the concatenated primal ordering
    # (``problem.subdomains`` order; needs at least one subdomain).
    @cached_property
    def B(self) -> sp.csr_matrix:
        """Block-diagonal ``B̃``: concatenated primal → concatenated local duals."""
        return sp.block_diag([s.B for s in self.problem.subdomains], format="csr")

    @cached_property
    def Bt(self) -> sp.csr_matrix:
        """Block-diagonal ``B̃ᵀ``, stored CSR."""
        return self.B.T.tocsr()

    @cached_property
    def primal_offsets(self) -> np.ndarray:
        """Offsets of every subdomain inside the concatenated primal vector."""
        sizes = [s.ndofs for s in self.problem.subdomains]
        return np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)

    def install_dense_block(self, subdomain_index: int, block: np.ndarray) -> None:
        """Pack one assembled ``F̃ᵢ`` at its subdomain's position."""
        self.require_dense().set_block(subdomain_index, block)
