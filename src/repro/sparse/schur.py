"""Schur-complement assembly on the CPU.

The explicit local dual operator can be written as the negative Schur
complement of the augmented matrix ``[[K_reg, B̃ᵀ], [B̃, 0]]`` (paper,
Section III).  MKL PARDISO computes it with an *augmented incomplete
factorization* that exploits the extreme sparsity of ``B̃`` — every column of
``B̃ᵀ`` holds a single ±1 — so the triangular solves can skip all rows above
the first nonzero.  This module implements that computation on top of the
in-package Cholesky factorization:

    ``S = B̃ K_reg⁻¹ B̃ᵀ = Wᵀ W``,  ``W = L⁻¹ P B̃ᵀ``,

where ``P`` is the fill-reducing permutation of the factorization.

The columns of ``W`` are ordered by the first nonzero row of ``P B̃ᵀ``.  The
forward solve keeps every column exactly zero above that row, so neither it
nor the product ``WᵀW`` touches the structurally zero part of ``W`` (the
paper's Table I *pruning*); ``S`` is re-ordered back to ``B̃``'s rows at the
end.

The assembly runs once per **interface class**, not once per subdomain.
Subdomains sharing a symbolic analysis whose ``P B̃ᵢᵀ`` have the same sorted
column first rows — on a box grid, the corner / edge / face / interior
positions crossed with the Dirichlet faces — share ``n_dual`` and the
supernode at which every column joins the sweep, so
:func:`stacked_schur_complement` sweeps their ``(k, n, n_dual)`` panels and
multiplies them out as one stack.  Everything about ``B̃ᵢ`` that the
assembly needs (:class:`SchurScatter`: the class key, the activation
schedule, the scatter into ``W``, the way back to ``B̃ᵢ``'s rows) depends on
the mesh and the ordering only and is built once, for a whole group of
subdomains sharing an analysis, by :func:`schur_scatters`.
The per-subdomain kernel this replaced is the test oracle
(``tests/oracles/schur.py``); every member's ``F̃ᵢ`` is bitwise its result.
"""

from __future__ import annotations

import mmap
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dtrtri

from repro.sparse.symbolic import SupernodePartition, SymbolicFactor

__all__ = [
    "SCHUR_CHUNK",
    "SchurScatter",
    "column_first_rows",
    "interface_classes",
    "rhs_sparsity_fill",
    "schur_scatter",
    "schur_scatters",
    "schur_workspace",
    "stacked_schur_complement",
]

#: Columns per block of the pruned ``WᵀW`` product.  Narrower blocks skip
#: more zero rows, wider ones run larger GEMMs; 32-96 measure within 9% of
#: each other on a 2 197-DOF heat 3D subdomain.
SCHUR_CHUNK = 64

#: Rows of ``S`` mirrored into their columns per step.  The rows above a
#: tile never overlap it, so only the tile's own diagonal block is buffered.
_MIRROR_TILE = 32
#: Where a diagonal tile of ``S`` takes the transpose of its lower triangle.
_STRICT_UPPER = np.triu(np.ones((_MIRROR_TILE, _MIRROR_TILE), dtype=bool), 1)


def column_first_rows(Bt: sp.spmatrix, row_map: np.ndarray | None = None) -> np.ndarray:
    """Smallest (optionally re-mapped) row index of every nonempty column.

    ``Bt`` is a CSC matrix, or the CSR matrix of its transpose, which stores
    the same arrays: the result is then one entry per nonempty *row* of the
    CSR matrix, which is how the assembly reads ``B̃`` without transposing
    it.  Returns an ``int64`` array, computed with one segmented reduction
    instead of a Python loop per column.  ``row_map`` re-maps row indices
    (e.g. into the permuted ordering) before taking the minimum.
    """
    counts = np.diff(Bt.indptr)
    nonempty = counts > 0
    if not nonempty.any():
        return np.empty(0, dtype=np.int64)
    rows = Bt.indices if row_map is None else row_map[Bt.indices]
    # reduceat over the starts of the nonempty columns: the data regions of
    # empty columns are zero-length, so each segment covers exactly one
    # column's entries.
    starts = Bt.indptr[:-1][nonempty]
    return np.minimum.reduceat(np.asarray(rows, dtype=np.int64), starts)


def _inverse_permutation(perm: np.ndarray) -> np.ndarray:
    inv_perm = np.empty(perm.shape[0], dtype=np.int64)
    inv_perm[perm] = np.arange(perm.shape[0], dtype=np.int64)
    return inv_perm


def _mean_fill(firsts: np.ndarray, n: int) -> float:
    """Mean of ``(n − first) / n`` over the first rows of the nonempty rows of ``B̃``."""
    if firsts.size == 0:
        return 1.0
    return float(np.mean((n - firsts) / n))


def rhs_sparsity_fill(B: sp.spmatrix, perm: np.ndarray) -> float:
    """Average fraction of forward-solve rows that cannot be skipped.

    For every column of ``P B̃ᵀ`` the forward substitution only needs rows
    from the first nonzero onward; this returns the mean of
    ``(n - first_nonzero) / n`` over the columns, the quantity the CPU cost
    model uses to represent how much work the augmented incomplete
    factorization saves.  :meth:`SchurScatter.rhs_fill` is the same number
    read off a scatter.
    """
    Bc = B.tocsr()
    n = Bc.shape[1]
    if Bc.shape[0] == 0 or n == 0:
        return 1.0
    return _mean_fill(column_first_rows(Bc, row_map=_inverse_permutation(perm)), n)


@dataclass(frozen=True)
class SchurScatter:
    """How one ``B̃ᵢ`` enters the assembly under one symbolic analysis.

    ``B̃ᵢ`` and the ordering are fixed by the mesh, so a scatter is built
    once per subdomain (when the operator is prepared) and read by every
    preprocessing after that.

    Attributes
    ----------
    starts:
        ``(n_dual,)`` first row of every column of ``P B̃ᵢᵀ``, ascending
        (``n`` for an empty row, which never joins the sweep).  The
        **interface class** key: members with equal ``starts`` share
        ``n_dual`` and the supernode at which each column joins the sweep.
    active:
        ``(n_supernodes,)`` columns the forward sweep has activated by the
        last column of each supernode (non-decreasing).
    flat:
        Position of every stored entry of ``B̃ᵢ`` in the ``(n, n_dual)``
        panel ``W`` (row ``P``-permuted, column in start order).
    data:
        The entries' values.
    rank:
        ``(n_dual,)`` start-order position of every row of ``B̃ᵢ``, or
        ``None`` where that is the identity.
    key:
        The interface-class key: the bytes of ``starts``.
    """

    starts: np.ndarray
    active: np.ndarray
    flat: np.ndarray
    data: np.ndarray
    rank: np.ndarray | None
    key: bytes

    @property
    def n_dual(self) -> int:
        """Rows of ``B̃ᵢ`` (the side of ``F̃ᵢ``)."""
        return int(self.starts.shape[0])

    def rhs_fill(self, n: int) -> float:
        """:func:`rhs_sparsity_fill` of ``B̃ᵢ`` (``n`` columns), from ``starts``.

        The first rows are taken back to ``B̃ᵢ``'s row order, so the mean
        sums them in the order :func:`rhs_sparsity_fill` does, bit for bit.
        """
        if self.n_dual == 0 or n == 0:
            return 1.0
        firsts = self.starts if self.rank is None else self.starts[self.rank]
        return _mean_fill(firsts[firsts < n], n)


def schur_scatters(
    symbolic: SymbolicFactor, B: sp.spmatrix, bounds: Sequence[int] | np.ndarray
) -> list[SchurScatter]:
    """The :class:`SchurScatter` of every member of a group, in one pass.

    ``B`` holds the members' ``B̃ᵢ`` stacked by rows, member ``i`` in rows
    ``bounds[i]:bounds[i + 1]``; all of them share ``symbolic``.  Every
    member's scatter is what it would be alone: its rows are sorted by start
    with one stable sort keyed by ``(member, start)``.
    """
    s = symbolic
    Bc = B.tocsr()
    bounds = np.asarray(bounds, dtype=np.int64)
    sizes = np.diff(bounds)
    n_rows = int(bounds[-1])
    inv_perm = _inverse_permutation(s.perm)
    row_nnz = np.diff(Bc.indptr)

    starts = np.full(n_rows, s.n, dtype=np.int64)  # an empty row of B̃ is never activated
    starts[row_nnz > 0] = column_first_rows(Bc, row_map=inv_perm)
    member = np.repeat(np.arange(sizes.shape[0], dtype=np.int64), sizes)
    key = member * (s.n + 1) + starts
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = starts[order]
    first = np.repeat(bounds[:-1], sizes)
    rank = np.empty(n_rows, dtype=np.int64)
    rank[order] = np.arange(n_rows, dtype=np.int64) - first
    # A member's rows keep their order where none of them moved.
    moved = np.concatenate([[0], np.cumsum(order != np.arange(n_rows))])
    in_order = (moved[bounds[1:]] - moved[bounds[:-1]] == 0).tolist()
    entry_row = np.repeat(np.arange(n_rows, dtype=np.int64), row_nnz)
    flat = inv_perm[Bc.indices] * sizes[member[entry_row]] + rank[entry_row]
    data = np.array(Bc.data, dtype=float)
    snode_last = s.supernodes.snode_ptr[1:] - 1
    active = np.searchsorted(
        key, (np.arange(sizes.shape[0])[:, None] * (s.n + 1) + snode_last).ravel(), side="right"
    ).reshape(sizes.shape[0], -1) - bounds[:-1, None]
    entries = Bc.indptr[bounds].tolist()
    rows = bounds.tolist()
    scatters = []
    for i in range(sizes.shape[0]):
        lo, hi, e0, e1 = rows[i], rows[i + 1], entries[i], entries[i + 1]
        member_starts = starts[lo:hi]
        scatters.append(
            SchurScatter(
                starts=member_starts,
                active=active[i],
                flat=flat[e0:e1],
                data=data[e0:e1],
                rank=None if in_order[i] else rank[lo:hi],
                key=member_starts.tobytes(),
            )
        )
    return scatters


def schur_scatter(symbolic: SymbolicFactor, B: sp.spmatrix) -> SchurScatter:
    """The :class:`SchurScatter` of ``B`` under ``symbolic``: a group of one."""
    return schur_scatters(symbolic, B, [0, B.shape[0]])[0]


def interface_classes(scatters: Sequence[SchurScatter]) -> list[list[int]]:
    """Positions of ``scatters`` grouped by class key, largest ``n_dual`` first.

    Classes keep the order of their first member within one ``n_dual``.
    Largest first: when each class maps its own ``W``, the largest is then
    live beside the fewest finished ``F̃ᵢ`` (a shared
    :func:`schur_workspace` holds the largest throughout).
    """
    classes: dict[bytes, list[int]] = {}
    for i, scatter in enumerate(scatters):
        classes.setdefault(scatter.key, []).append(i)
    return sorted(classes.values(), key=lambda members: -scatters[members[0]].n_dual)


def stacked_schur_complement(
    symbolic: SymbolicFactor,
    bands: Sequence[np.ndarray],
    scatters: Sequence[SchurScatter],
    workspace: np.ndarray | None = None,
) -> np.ndarray:
    """``F̃ᵢ = B̃ᵢ Kᵢ⁻¹ B̃ᵢᵀ`` of the ``k`` members of one interface class.

    Parameters
    ----------
    symbolic:
        The members' shared symbolic analysis.
    bands:
        The members' ``(n, kd + 1)`` factor bands, ``bands[i]`` for
        ``scatters[i]`` (any storage dtype; the arithmetic runs in fp64).
    scatters:
        The members' :class:`SchurScatter`, all with equal ``starts``.
    workspace:
        A flat :func:`schur_workspace` of at least ``k * n * n_dual``
        entries for the sweep to run in.  It is zeroed here, so one buffer
        serves every class of a group; by default the call maps its own.

    Returns
    -------
    numpy.ndarray
        ``(k, n_dual, n_dual)``: row ``i`` is member ``i``'s exactly
        symmetric ``F̃ᵢ`` in ``B̃ᵢ``'s row order.

    The members' supernode panels are gathered from their bands one
    supernode at a time (:class:`~repro.sparse.symbolic.SupernodePartition`'s
    position maps).  One forward sweep over the ``(k, n, n_dual)`` stack
    ``W = L⁻¹ P B̃ᵀ`` (per supernode, a batched product with the inverses of
    the diagonal blocks over the columns activated so far, and one batched
    GEMM for the rows below), then one batched pruned ``WᵀW``.  Every batched
    call runs the BLAS call of one member per member, so each ``F̃ᵢ`` is
    bitwise what a class of one gives.

    Raises
    ------
    ValueError
        If the scatters do not form one class.
    """
    starts, key = scatters[0].starts, scatters[0].key
    if any(scatter.key != key for scatter in scatters[1:]):
        raise ValueError("the scatters do not form one interface class")
    k, n_dual = len(scatters), starts.shape[0]
    size = k * symbolic.n * n_dual
    if workspace is None:
        workspace = schur_workspace(size)
    else:
        workspace[:size] = 0.0
    # P B̃ᵀ is scattered straight into the buffer the sweep runs in, its
    # columns already in start order.
    W = workspace[:size].reshape(k, symbolic.n, n_dual)
    for member, scatter in zip(W.reshape(k, -1), scatters):
        np.add.at(member, scatter.flat, scatter.data)
    _forward_sweep(symbolic.supernodes, bands, W, scatters[0].active)
    S = _pruned_gram(W, starts)
    del W, workspace  # a buffer of the call's own goes before the re-ordering's temporary
    # Back to B̃'s order: rows into a temporary, columns into S's own buffer
    # (``clip`` because ``raise`` would buffer the output; ``rank`` is a
    # permutation, so nothing is clipped).
    for Si, scatter in zip(S, scatters):
        if scatter.rank is not None:
            rank = scatter.rank
            np.take(np.take(Si, rank, axis=0), rank, axis=1, out=Si, mode="clip")
    return S


def schur_workspace(size: int) -> np.ndarray:
    """``size`` zeroed fp64 entries on private anonymous pages, unmapped when freed.

    The sweep's stack is the largest temporary of a preprocessing
    (``n x n_dual`` fp64 a member: 8.3 MB for one 2 197-DOF heat 3D
    subdomain).  glibc serves a block that size from the heap as soon as
    the free of a large block has raised its dynamic mmap threshold, and
    the heap then places it in whatever hole the earlier allocations left,
    or grows: the peak resident set of a process that sets up one solver
    after another swung by ~9 MB from run to run with the heap's layout.
    Mapped, the stack is zero-filled by the kernel, populated in one call
    and returned whole on free, so it leaves no hole behind either.
    """
    flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | getattr(mmap, "MAP_POPULATE", 0)
    return np.frombuffer(mmap.mmap(-1, max(1, 8 * size), flags=flags), count=size)


def _forward_sweep(
    part: SupernodePartition,
    bands: Sequence[np.ndarray],
    W: np.ndarray,
    active: np.ndarray,
) -> None:
    """Overwrite the ``(k, n, n_dual)`` stack ``W`` with ``L⁻¹ W``, pruned.

    Supernode ``s`` updates only the ``active[s]`` columns that have joined
    the sweep; the others are still exactly zero on and above its rows, and
    the supernodes before the first active one are skipped outright.  Its
    fp64 panels are gathered from the members' bands when the sweep reaches
    it, so at most one panel per member exists at a time, and each diagonal
    block is overwritten with its inverse (LAPACK ``dtrtri``, one call per
    member).  A supernode's below rows (ascending, distinct) are addressed by
    a basic slice wherever they are one contiguous run, so the update is in
    place.
    """
    flats = [band.reshape(-1) for band in bands]
    snode_ptr, heights = part.snode_ptr.tolist(), part.heights.tolist()
    # panel_pos ascends, so each supernode's entries are one run of the maps.
    entry_off = np.searchsorted(part.panel_pos, part.panel_off).tolist()
    for s in range(int(np.searchsorted(active, 0, side="right")), part.n_supernodes):
        a = int(active[s])
        j0, j1 = snode_ptr[s], snode_ptr[s + 1]
        w, h = j1 - j0, heights[s]
        panel = _gather_panel(part, flats, s, slice(entry_off[s], entry_off[s + 1]))
        # Inverted in place: LAPACK overwrites a Fortran-order copy.
        block = np.empty((w, w), order="F")
        for diagonal in panel[:, :w]:
            block[...] = diagonal
            inverse, _ = dtrtri(block, lower=1, overwrite_c=1)
            assert inverse is block
            diagonal[...] = block
        del block, inverse
        yj = np.matmul(panel[:, :w], W[:, j0:j1, :a])
        W[:, j0:j1, :a] = yj
        if h > w:
            rows = part.below_rows[s]
            r0, r1 = int(rows[0]), int(rows[-1]) + 1
            if r1 - r0 == h - w:
                rows = slice(r0, r1)
            W[:, rows, :a] -= np.matmul(panel[:, w:], yj)


def _gather_panel(
    part: SupernodePartition, flats: Sequence[np.ndarray], s: int, entries: slice
) -> np.ndarray:
    """The members' fp64 ``(k, heights[s], widths[s])`` panels of supernode ``s``.

    ``entries`` is the supernode's run of the position maps; the index
    temporaries are freed on return, before the sweep's products exist.
    """
    local = part.panel_pos[entries] - part.panel_off[s]
    source = part.band_pos[entries]
    panel = np.zeros((len(flats), int(part.heights[s]), int(part.widths[s])))
    for row, flat in zip(panel.reshape(len(flats), -1), flats):
        row[local] = flat[source]
    return panel


def _pruned_gram(W: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """``WᵢᵀWᵢ`` of a panel stack whose column ``c`` is zero above row ``starts[c]``.

    ``starts`` ascends, so every column of the block ``[c0, c1)`` is zero
    above ``starts[c0]``: its rows ``c0:c1`` of ``S`` are one batched GEMM
    over the rows from there on, which is exact, not an approximation.  The
    upper triangle is a copy of the lower one, so every ``Sᵢ`` is exactly
    symmetric: each block row is mirrored into its block column as soon as
    it is computed, with no temporary larger than one ``_MIRROR_TILE``² tile
    per member.
    """
    k, _, n_dual = W.shape
    S = np.empty((k, n_dual, n_dual))
    for c0 in range(0, n_dual, SCHUR_CHUNK):
        c1 = min(c0 + SCHUR_CHUNK, n_dual)
        r = int(starts[c0])
        np.matmul(W[:, r:, c0:c1].transpose(0, 2, 1), W[:, r:, :c1], out=S[:, c0:c1, :c1])
        for t0 in range(c0, c1, _MIRROR_TILE):
            t1 = min(t0 + _MIRROR_TILE, c1)
            S[:, :t0, t0:t1] = S[:, t0:t1, :t0].transpose(0, 2, 1)
            tile = S[:, t0:t1, t0:t1]
            np.copyto(
                tile,
                tile.transpose(0, 2, 1),
                where=_STRICT_UPPER[: t1 - t0, : t1 - t0],
            )
    return S
