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
* :class:`BatchedDenseApply` — every subdomain's dense ``F̃ᵢ``: the blocks of
  fewer than :data:`SYMV_MIN_ROWS` rows zero-padded into one 3-D pack and
  applied with a single batched GEMV (``np.matmul`` over the leading axis),
  each larger block held unpadded and applied with one BLAS ``dsymv`` on its
  stored triangle, as the paper applies ``F̃ᵢ``;
* :class:`SubdomainBatchEngine` — the above over every subdomain at once.

The engine is numerics only: the simulated time of an apply is the cost
replay's timeline, planned once per preprocessing round (see
:meth:`~repro.feti.operators.base.DualOperator._apply_impl`).
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dsymv

from repro.decomposition.gluing import flat_scatter_maps
from repro.sparse.spmv import CsrProduct

__all__ = ["SYMV_MIN_ROWS", "FlatIndexMap", "BatchedDenseApply", "SubdomainBatchEngine"]

#: Blocks of at least this many rows leave the padded pack and are applied by
#: one ``dsymv`` each.  Measured per block on one BLAS thread of a 2-core Xeon
#: VM (best of 7), the stacked GEMV (in cache) beats a lone SYMV up to 80
#: rows, by 1.9-4.6x (each SYMV call costs ~0.75 µs of overhead), and loses
#: from 96 rows on: 0.87x at 96, 0.60x at 512.  Heat 3D ``(2,2,1)x12``
#: (blocks of 325-494 rows): one apply 301-316 µs in the pack, 133-137 µs
#: with SYMV; heat 2D ``(8,8)x8`` (64 blocks of 17-34 rows): 28 µs in the
#: pack, 69 µs with SYMV on every block.
SYMV_MIN_ROWS = 96


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

    def split(self, values: np.ndarray) -> list[np.ndarray]:
        """Per-subdomain views into a concatenated array."""
        return [
            values[self.offsets[i] : self.offsets[i + 1]]
            for i in range(self.n_items)
        ]

    def slice_of(self, item: int) -> slice:
        """The concatenated-array slice of one subdomain."""
        return slice(int(self.offsets[item]), int(self.offsets[item + 1]))


class BatchedDenseApply:
    """Every subdomain's dense square block ``F̃ᵢ``, applied as one product.

    Items follow ``index_map``, which must list every block of fewer than
    :data:`SYMV_MIN_ROWS` rows before the larger ones.  The small blocks are
    stored in one contiguous ``(n_packed, max, max)`` array, zero-padded, so
    they apply as a single batched GEMV instead of ``n_packed`` small GEMVs
    issued from Python.  Each large block is held once, unpadded, as it was
    installed (no copy when it is C-contiguous at the storage dtype: the
    Schur assembly's output is), and applied by one ``dsymv`` on its stored
    triangle: the blocks are exactly symmetric, and padding them into the
    pack would stream the square of the largest block for every one of them.

    An apply maps ``λ`` (``n_lambda`` entries) to ``q = Σᵢ B̃ᵢᵀ F̃ᵢ B̃ᵢ λ``
    in three steps: gather ``λ`` into the padded lanes (and the large
    blocks' inputs); one batched GEMV plus one ``dsymv`` per large block,
    all into one output buffer laid out as the padded lanes followed by the
    large blocks' rows; one ``np.bincount`` of that buffer straight into
    ``λ``-space, with every padding lane sent to an extra bin that is
    dropped.  The data lanes come in concatenated order, so every ``λ``
    entry sums its contributions in the order of a concatenated scatter.
    """

    def __init__(self, index_map: FlatIndexMap, n_lambda: int, dtype=np.float64) -> None:
        self.map = index_map
        self.n_lambda = int(n_lambda)
        sizes = index_map.sizes
        large = sizes >= SYMV_MIN_ROWS
        #: Number of blocks in the padded pack: the map's first items.
        self.n_packed = n_packed = int(np.count_nonzero(~large))
        if large[:n_packed].any():
            raise ValueError(
                f"blocks of {SYMV_MIN_ROWS} rows or more must follow the packed ones"
            )
        #: Length of the packed blocks' prefix of a concatenated dual vector.
        self.split = split = int(index_map.offsets[n_packed])
        m = int(sizes[:n_packed].max()) if n_packed else 0
        lanes = n_packed * m
        #: The padded pack.  Its dtype is every block's storage dtype (fp32
        #: under a demoting precision policy).  The dual vectors and every
        #: result stay fp64: ``np.matmul`` promotes the mixed product and a
        #: large block is up-cast on use, so half-size storage changes only
        #: the storage, not the interface.
        self.blocks = np.zeros((n_packed, m, m), dtype=dtype)
        #: The padded input lanes; the padding lanes are never written.
        self._p_pad = np.zeros((n_packed, m, 1))
        #: Where each packed entry of a concatenated vector sits in the lanes.
        self._pad_positions = np.arange(split) + np.repeat(
            np.arange(n_packed) * m - index_map.offsets[:n_packed], sizes[:n_packed]
        )
        #: The output buffer's bins: a lane's ``λ`` id, ``n_lambda`` for a
        #: padding lane, then the large blocks' ids.
        out_ids = np.full(lanes + index_map.total - split, self.n_lambda, dtype=np.int64)
        out_ids[self._pad_positions] = index_map.flat_ids[:split]
        out_ids[lanes:] = index_map.flat_ids[split:]
        self._out_ids = out_ids
        #: The large blocks, in map order after the packed ones.
        self.large: list[np.ndarray | None] = [None] * (index_map.n_items - n_packed)
        #: Per large block: its first row in a concatenated vector and in
        #: the output buffer (``dsymv``'s ``offx`` / ``offy``).
        self._large_offsets = [
            (int(index_map.offsets[item]), lanes + int(index_map.offsets[item]) - split)
            for item in range(n_packed, index_map.n_items)
        ]

    @property
    def nbytes(self) -> int:
        """Bytes of the stored blocks: the padded pack plus the large blocks."""
        return int(self.blocks.nbytes) + sum(
            int(block.nbytes) for block in self.large if block is not None
        )

    def set_block(self, item: int, block: np.ndarray) -> None:
        """Install (or refresh) one subdomain's dense block."""
        n = int(self.map.sizes[item])
        if block.shape != (n, n):
            raise ValueError(
                f"block {item} has shape {block.shape}, expected ({n}, {n})"
            )
        if item < self.n_packed:
            self.blocks[item, :n, :n] = block
        else:
            self.large[item - self.n_packed] = np.ascontiguousarray(block, dtype=self.blocks.dtype)

    def block(self, item: int) -> np.ndarray:
        """A read-only, unpadded view of one installed block."""
        if item < self.n_packed:
            n = int(self.map.sizes[item])
            view = self.blocks[item, :n, :n]
        else:
            view = self.large[item - self.n_packed].view()
        view.flags.writeable = False
        return view

    def principal(self, items: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The ``(k, m, m)`` fp64 principal submatrices ``block[rows[j]][:, rows[j]]``.

        ``items`` names ``k`` installed blocks, ``rows`` is ``(k, m)``.  The
        packed blocks are gathered by one ``take`` of flat positions in the
        pack, each large one by its own fancy index.
        """
        items = np.asarray(items, dtype=np.int64)
        out = np.empty((items.shape[0], rows.shape[1], rows.shape[1]))
        packed = items < self.n_packed
        n = self.blocks.shape[-1]
        flat = ((items * n)[:, None] + rows)[:, :, None] * n + rows[:, None, :]
        if packed.all() and self.blocks.dtype == out.dtype:
            return self.blocks.reshape(-1).take(flat, out=out)
        out[packed] = self.blocks.reshape(-1).take(flat[packed])
        for j in np.flatnonzero(~packed).tolist():
            out[j] = self.large[items[j] - self.n_packed][np.ix_(rows[j], rows[j])]
        return out

    def apply(self, lam: np.ndarray) -> np.ndarray:
        """``q = Σᵢ B̃ᵢᵀ F̃ᵢ B̃ᵢ λ``: one batched GEMV, one SYMV per large block.

        ``dsymv`` reads ``block.T``, the F-contiguous view of the
        C-contiguous block (any other layout makes f2py copy the block on
        every call), and writes its rows of the output buffer in place.
        """
        p = lam.take(self.map.flat_ids)
        self._p_pad.reshape(-1)[self._pad_positions] = p[: self.split]
        out = np.zeros(self._out_ids.shape[0])
        np.matmul(self.blocks, self._p_pad, out=out[: self._p_pad.size].reshape(self._p_pad.shape))
        for (offx, offy), block in zip(self._large_offsets, self.large):
            dsymv(
                1.0, block.astype(np.float64, copy=False).T, p,
                offx=offx, y=out, offy=offy, overwrite_y=True,
            )
        return np.bincount(self._out_ids, weights=out, minlength=self.n_lambda + 1)[:-1]

    def apply_multi(self, lam_block: np.ndarray) -> np.ndarray:
        """Stacked multi-RHS apply: one batched GEMM plus one GEMM per large block.

        ``lam_block`` holds ``k`` dual vectors as an ``(n_lambda, k)``
        block; returns the matching ``(n_lambda, k)`` results, one
        ``np.bincount`` per column.  Amortizes the gather and the kernel
        launch over every column — the request-level analogue of the
        per-subdomain batching of :meth:`apply`.
        """
        k = int(lam_block.shape[1])
        P = lam_block.take(self.map.flat_ids, axis=0)
        n_packed, m, _ = self.blocks.shape
        P_pad = np.zeros((n_packed * m, k))
        P_pad[self._pad_positions] = P[: self.split]
        out = np.empty((self._out_ids.shape[0], k))
        np.matmul(
            self.blocks,
            P_pad.reshape(n_packed, m, k),
            out=out[: n_packed * m].reshape(n_packed, m, k),
        )
        for (offx, offy), block in zip(self._large_offsets, self.large):
            rows = block.shape[0]
            np.matmul(
                block.astype(np.float64, copy=False),
                P[offx : offx + rows],
                out=out[offy : offy + rows],
            )
        Q = np.empty_like(lam_block)
        for j in range(k):
            Q[:, j] = np.bincount(self._out_ids, weights=out[:, j], minlength=self.n_lambda + 1)[:-1]
        return Q


class SubdomainBatchEngine:
    """Batched execution engine over a FETI problem's subdomains.

    One flat scatter/gather map over every subdomain and, for the explicit
    approaches, one :class:`BatchedDenseApply` of their ``F̃ᵢ``: an apply is
    one ``take``, one padded batched GEMV over the small blocks, one
    ``dsymv`` per large block and one ``bincount`` scatter, however many
    clusters the subdomains are spread over.  ``global_map`` follows
    ``problem.subdomains``, which is in subdomain-index order; ``dense_map``
    is the same map with the small blocks' subdomains moved first.
    """

    def __init__(self, problem, dense_dtype=np.float64) -> None:
        self.problem = problem
        #: Storage dtype of the blocks created by :meth:`require_dense`.
        self.dense_dtype = np.dtype(dense_dtype)
        #: Scatter/gather over all subdomains; the flat arrays come from the
        #: gluing data's cached maps.
        self.global_map = FlatIndexMap.from_flat(*problem.gluing.scatter_maps())
        # Subdomains of small blocks first, then the large ones, each in
        # index order: the dense apply's order.
        order = np.argsort(self.global_map.sizes >= SYMV_MIN_ROWS, kind="stable")
        self._dense_item = np.argsort(order)
        #: The dense apply's scatter/gather (``global_map`` itself when the
        #: order above is the index order).
        self.dense_map = self.global_map
        if np.any(order != np.arange(order.size)):
            ids = self.global_map.split(self.global_map.flat_ids)
            self.dense_map = FlatIndexMap([ids[i] for i in order])
        #: Dense blocks (installed by the explicit backends after assembly,
        #: dropped when the operator releases its storage).
        self.dense: BatchedDenseApply | None = None

    def require_dense(self) -> BatchedDenseApply:
        """The dense blocks, creating their (empty) storage on first use."""
        if self.dense is None:
            self.dense = BatchedDenseApply(
                self.dense_map, self.problem.n_lambda, dtype=self.dense_dtype
            )
        return self.dense

    # The gluing and the kernels are static across Algorithm-2 steps, so the
    # products around the stacked ``K⁺`` solve are one SpMV each: rows in
    # ``global_map`` order, columns in the concatenated primal ordering
    # (``problem.subdomains`` order; needs at least one subdomain).
    @cached_property
    def B(self) -> sp.csr_matrix:
        """Block-diagonal ``B̃``: concatenated primal → concatenated local duals.

        Row ``e`` is gluing entry ``e`` (one entry per row of every ``B̃ᵢ``,
        in ``global_map`` order), its column shifted by its subdomain's
        primal offset: one CSR built from the entries, the matrix
        ``sp.block_diag`` of the ``B̃ᵢ`` is.
        """
        e = self.problem.gluing.entries
        cols = e.col + np.repeat(self.primal_offsets[:-1], e.counts)
        return sp.csr_matrix(
            (e.val, cols, np.arange(e.lam.shape[0] + 1)),
            shape=(e.lam.shape[0], int(self.primal_offsets[-1])),
        )

    @cached_property
    def Bt(self) -> sp.csr_matrix:
        """Block-diagonal ``B̃ᵀ``, stored CSR."""
        return self.B.T.tocsr()

    @cached_property
    def B_product(self) -> CsrProduct:
        """``z ↦ B̃ z``, the CSR kernel bound once."""
        return CsrProduct(self.B)

    @cached_property
    def Bt_product(self) -> CsrProduct:
        """``y ↦ B̃ᵀ y``, the CSR kernel bound once."""
        return CsrProduct(self.Bt)

    @cached_property
    def primal_offsets(self) -> np.ndarray:
        """Offsets of every subdomain inside the concatenated primal vector."""
        sizes = [s.ndofs for s in self.problem.subdomains]
        return np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)

    def install_dense_block(self, subdomain_index: int, block: np.ndarray) -> None:
        """Install one assembled ``F̃ᵢ`` at its subdomain's item."""
        self.require_dense().set_block(int(self._dense_item[subdomain_index]), block)

    def dense_block(self, subdomain_index: int) -> np.ndarray:
        """One installed ``F̃ᵢ``: a read-only view, unpadded."""
        return self.dense.block(int(self._dense_item[subdomain_index]))

    def principal_blocks(self, subdomains: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """``F̃ᵢ[rows[j]][:, rows[j]]`` of every subdomain ``i = subdomains[j]``, fp64."""
        return self.dense.principal(self._dense_item[subdomains], rows)
