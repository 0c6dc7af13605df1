"""Symbolic analysis for sparse Cholesky factorization.

The symbolic phase is executed once per sparsity pattern (the paper's
"preparation" phase): it computes a fill-reducing permutation, the
elimination tree, the nonzero pattern of the factor and the column counts.
The numeric phase (:mod:`repro.sparse.numeric`) then only fills values into
this pattern, which is exactly the split production solvers (CHOLMOD,
PARDISO) use and the reason the paper can re-run only the numeric
factorization in every time step.

On top of the column pattern the analysis produces the structure that lets
the numeric phase and the triangular solves run on dense panels instead of
per-column scatter loops, mirroring the supernodal techniques of the
production libraries: **supernode detection** — maximal parent-chains of
columns whose (nested) patterns are merged into dense trapezoidal panels,
with a relaxed amalgamation criterion that tolerates a bounded fraction of
explicit-zero padding (CHOLMOD's relaxed supernodes).

All of it — including the one-pass permutation maps that turn the original
matrix values into the permuted lower-triangular CSC layout — depends only on
the pattern, so :mod:`repro.sparse.cache` can share one
:class:`SymbolicFactor` across every subdomain with the same sparsity.

The analysis runs in **array form**: the interpreter takes ``O(n)`` steps (one
sorted union per column for the factor pattern, which discovers the
elimination tree on the way; one pass over the columns for the supernode
split; one tuple per left-looking update) and everything proportional to
``nnz(L)`` happens inside NumPy calls — the panel positions of all entries of
``L``, of ``A`` and of all update blocks come from one ``searchsorted`` each.
What it keeps is ``O(nnz(L))`` index entries: an update stores the two factors
``(rows, cols)`` of its block position, never the ``rows x cols`` product.
The per-entry pure-Python analysis this replaced (Liu's path-compressed tree,
row patterns by tree reach, one flat scatter array per update) lives on as
the bit-identity oracle ``tests/oracles/sparse.py::symbolic_reference``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.sparse.ordering import OrderingMethod, compute_ordering

__all__ = [
    "SupernodePartition",
    "SymbolicFactor",
    "detect_supernodes",
    "symbolic_cholesky",
]

#: Default relaxed-amalgamation tolerance: a supernode may contain up to this
#: fraction of explicit-zero padding entries.
RELAX_PADDING = 0.25

#: Default cap on supernode width (columns per dense panel).
MAX_SUPERNODE = 32


@dataclass
class SupernodePartition:
    """Supernodes of a factor pattern, with their dense-panel layout.

    Supernode ``s`` owns the column range ``snode_ptr[s]:snode_ptr[s + 1]``
    and is stored as a dense row-major trapezoidal panel of shape
    ``(heights[s], widths[s])``: the first ``widths[s]`` panel rows are the
    triangular diagonal block, the remaining rows correspond to
    ``below_rows[s]`` (the strictly-below-panel pattern of the supernode's
    last column, which by elimination-tree nestedness contains the below
    rows of every column of the chain).

    ``lpos`` maps every stored entry of ``L`` (CSC order) to its flat
    position in the concatenated panel storage; ``ainit_pos`` does the same
    for the entries of the permuted lower triangle of the analysed matrix,
    so the numeric factorization initializes all panels with one vectorized
    scatter.

    ``updates[j]`` lists the left-looking contributions into supernode ``j``
    as ``(k, i0, i1, rows, cols)``, ascending in ``k``: the below-rows
    ``i0:i1`` of an earlier supernode ``k`` fall inside panel ``j``'s column
    range, and the GEMM contribution ``(below rows i0: of k) x (below rows
    i0:i1 of k)ᵀ`` is subtracted from ``panel_j[rows, cols]`` (``panel_j``
    of shape ``(heights[j], widths[j])``).  ``rows`` / ``cols`` are the two
    factors of the block's position — a ``slice`` where the range is
    contiguous, an index array otherwise (``rows`` shaped ``(R, 1)`` when
    both are arrays, so the pair always addresses an ``R x C`` block) — which
    keeps the maps at ``O(R + C)`` per update instead of ``O(R * C)``.
    """

    snode_ptr: np.ndarray
    col_to_snode: np.ndarray
    widths: np.ndarray
    heights: np.ndarray
    panel_off: np.ndarray
    below_rows: list[np.ndarray]
    lpos: np.ndarray
    updates: list[list[tuple[int, int, int, np.ndarray | slice, np.ndarray | slice]]]
    ainit_pos: np.ndarray | None = None

    @property
    def n_supernodes(self) -> int:
        """Number of supernodes."""
        return int(self.snode_ptr.shape[0] - 1)

    @property
    def panel_entries(self) -> int:
        """Total entries of the concatenated dense panels (incl. padding)."""
        return int(self.panel_off[-1])

    @property
    def mean_width(self) -> float:
        """Average columns per supernode."""
        n = self.n_supernodes
        return float(self.col_to_snode.shape[0] / n) if n else 0.0

    def padding_ratio(self) -> float:
        """Fraction of panel entries that are explicit-zero padding."""
        total = self.panel_entries
        return 1.0 - self.lpos.shape[0] / total if total else 0.0

    @property
    def nbytes(self) -> int:
        """Bytes of every index array of the partition, update maps included."""
        return _index_nbytes(list(vars(self).values()))


@dataclass
class SymbolicFactor:
    """Symbolic Cholesky factorization of a permuted SPD matrix.

    The factor ``L`` is lower triangular with the permuted matrix satisfying
    ``P A Pᵀ = L Lᵀ``.  Only the pattern is stored here.

    Attributes
    ----------
    n:
        Matrix dimension.
    perm:
        Fill-reducing permutation (``A`` is reordered as ``A[perm][:, perm]``).
    parent:
        Elimination tree (parent of each column, ``-1`` for roots).
    col_ptr, row_idx:
        CSC pattern of ``L`` including the unit diagonal position; row
        indices in every column are strictly increasing and start with the
        diagonal.
    """

    n: int
    perm: np.ndarray
    parent: np.ndarray
    col_ptr: np.ndarray
    row_idx: np.ndarray

    @property
    def nnz(self) -> int:
        """Number of stored entries of ``L`` (including the diagonal)."""
        return int(self.row_idx.shape[0])

    @property
    def column_counts(self) -> np.ndarray:
        """Entries per column of ``L`` (including the diagonal)."""
        return np.diff(self.col_ptr)

    #: ``nnz(L)`` divided by the nnz of the lower triangle of ``A`` (fill-in).
    fill_ratio: float = 1.0

    #: Supernode partition and dense-panel layout (always set by
    #: :func:`symbolic_cholesky`).
    supernodes: SupernodePartition | None = None

    # Pattern of the analysed matrix in canonical CSC order, and the one-pass
    # permutation map turning its data into the permuted lower-triangular CSC
    # layout (the fix for the former double fancy-index permutation).
    a_indptr: np.ndarray | None = field(default=None, repr=False)
    a_indices: np.ndarray | None = field(default=None, repr=False)
    a_lower_indptr: np.ndarray | None = field(default=None, repr=False)
    a_lower_rows: np.ndarray | None = field(default=None, repr=False)
    a_lower_map: np.ndarray | None = field(default=None, repr=False)

    @property
    def nbytes(self) -> int:
        """Bytes of every index array the analysis holds.

        Pattern, permutation maps, panel layout and update maps — what one
        :class:`~repro.sparse.cache.PatternCache` entry keeps resident (and
        what the process backend pickles once per shard).  ``below_rows`` are
        views into ``row_idx`` until pickled and are counted as if owned.
        """
        return _index_nbytes(list(vars(self).values()))

    def factor_density(self) -> float:
        """Fraction of the lower triangle of ``L`` that is nonzero."""
        total = self.n * (self.n + 1) / 2.0
        return self.nnz / total if total else 1.0

    def factorization_flops(self) -> float:
        """Approximate flop count of the numeric factorization.

        The classic estimate ``sum_j nnz(L[:, j])**2`` (each column update is
        a rank-1 modification of the remaining submatrix restricted to the
        column pattern).
        """
        counts = self.column_counts.astype(float)
        return float(np.sum(counts * counts))

    def solve_flops(self, nrhs: int = 1) -> float:
        """Approximate flops of a forward+backward solve with ``nrhs`` RHS."""
        return 4.0 * self.nnz * float(nrhs)


def _index_nbytes(obj) -> int:
    """Total ``nbytes`` of the arrays inside (nested) fields of an analysis."""
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, SupernodePartition):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(map(_index_nbytes, obj))
    return 0


def detect_supernodes(
    parent: np.ndarray,
    col_counts: np.ndarray,
    relax: float = RELAX_PADDING,
    max_width: int = MAX_SUPERNODE,
) -> np.ndarray:
    """Partition columns into supernodes (maximal relaxed parent-chains).

    Column ``j + 1`` extends the current chain when it is the elimination-tree
    parent of ``j`` (which guarantees the below-chain patterns are nested) and
    the dense panel of the merged chain would contain at most ``relax``
    explicit-zero padding.  The *strict* criterion — merge only when
    ``col_counts[j] == col_counts[j + 1] + 1`` — is the special case
    ``relax=0.0``.

    Parameters
    ----------
    parent:
        Elimination tree of the factor pattern.
    col_counts:
        Entries per column of ``L`` including the diagonal.
    relax:
        Maximal tolerated fraction of padding entries per panel.
    max_width:
        Maximal columns per supernode.

    Returns
    -------
    numpy.ndarray
        ``snode_ptr`` of length ``n_supernodes + 1`` with the column ranges.
    """
    n = parent.shape[0]
    if n == 0:
        return np.zeros(1, dtype=np.int64)
    boundaries = [0]
    exact = int(col_counts[0])
    j0 = 0
    for j in range(n - 1):
        width = j + 2 - j0
        merge = parent[j] == j + 1 and width <= max_width
        if merge:
            nbelow = int(col_counts[j + 1]) - 1
            panel = width * (width + 1) // 2 + width * nbelow
            exact_next = exact + int(col_counts[j + 1])
            if panel - exact_next > relax * panel:
                merge = False
        if merge:
            exact = exact_next
        else:
            boundaries.append(j + 1)
            j0 = j + 1
            exact = int(col_counts[j + 1])
    boundaries.append(n)
    return np.asarray(boundaries, dtype=np.int64)


def _panel_positions(
    rows: np.ndarray, j0: int, j1: int, width: int, below: np.ndarray
) -> np.ndarray:
    """Local panel row indices of (sorted) global pattern rows ``>= j0``."""
    split = int(np.searchsorted(rows, j1))
    loc = np.empty(rows.shape[0], dtype=np.int64)
    loc[:split] = rows[:split] - j0
    loc[split:] = width + np.searchsorted(below, rows[split:])
    return loc


def _build_partition(
    n: int,
    col_ptr: np.ndarray,
    row_idx: np.ndarray,
    snode_ptr: np.ndarray,
    a_lower_indptr: np.ndarray,
    a_lower_rows: np.ndarray,
) -> SupernodePartition:
    """Derive the dense-panel layout and update maps of a supernode split.

    Every map is built for all supernodes at once: a pattern row ``r`` of
    supernode ``s`` sits either in the triangle (``r - j0``) or among the
    below rows, where one ``searchsorted`` over the keys ``s * n + row`` of
    all below rows (ascending by construction) finds it.
    """
    nsuper = snode_ptr.shape[0] - 1
    widths = np.diff(snode_ptr)
    snodes = np.arange(nsuper, dtype=np.int64)
    col_to_snode = np.repeat(snodes, widths)
    last = snode_ptr[1:] - 1
    below_rows = [row_idx[a:b] for a, b in zip(col_ptr[last] + 1, col_ptr[last + 1])]
    nbelow = col_ptr[last + 1] - col_ptr[last] - 1
    heights = widths + nbelow
    panel_off = np.concatenate(([0], np.cumsum(heights * widths))).astype(np.int64)

    below_ptr = np.concatenate(([0], np.cumsum(nbelow))).astype(np.int64)
    below_all = row_idx[_ragged_arange(col_ptr[last] + 1, nbelow)]
    below_src = np.repeat(snodes, nbelow)
    below_key = below_src * n + below_all

    def local_rows(sn: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Panel-local row of pattern row ``rows[i]`` in supernode ``sn[i]``."""
        pos = np.searchsorted(below_key, sn * n + rows) - below_ptr[sn]
        return np.where(rows < snode_ptr[sn + 1], rows - snode_ptr[sn], widths[sn] + pos)

    def flat_positions(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Flat panel position of every entry of a CSC pattern inside ``L``'s."""
        cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        sn = col_to_snode[cols]
        return panel_off[sn] + local_rows(sn, rows) * widths[sn] + (cols - snode_ptr[sn])

    lpos = flat_positions(col_ptr, row_idx)
    ainit = flat_positions(a_lower_indptr, a_lower_rows)

    # Left-looking updates: the below rows of supernode k split into runs by
    # the supernode owning each row; the run i0:i1 that falls into supernode
    # j's columns contributes (below rows i0: of k) x (below rows i0:i1 of k)
    # to panel j.  The panel-local rows of all those blocks are looked up in
    # one go; an update's local columns are the leading i1 - i0 of its rows.
    target = col_to_snode[below_all]
    first = np.ones(below_all.shape[0], dtype=bool)
    first[1:] = (below_src[1:] != below_src[:-1]) | (target[1:] != target[:-1])
    starts = np.flatnonzero(first)
    src, dst = below_src[starts], target[starts]
    ncols = np.diff(np.append(starts, below_all.shape[0]))
    nrows = below_ptr[src + 1] - starts
    rloc_all = local_rows(np.repeat(dst, nrows), below_all[_ragged_arange(starts, nrows)])
    rloc_ptr = np.concatenate(([0], np.cumsum(nrows)))
    updates: list[list[tuple]] = [[] for _ in range(nsuper)]
    for k, j, i0, nc, r0, r1 in zip(
        src.tolist(),
        dst.tolist(),
        (starts - below_ptr[src]).tolist(),
        ncols.tolist(),
        rloc_ptr[:-1].tolist(),
        rloc_ptr[1:].tolist(),
    ):
        rloc = rloc_all[r0:r1]
        updates[j].append((k, i0, i0 + nc, *_block_index(rloc, nc)))

    return SupernodePartition(
        snode_ptr=snode_ptr,
        col_to_snode=col_to_snode,
        widths=widths,
        heights=heights,
        panel_off=panel_off,
        below_rows=below_rows,
        lpos=lpos,
        updates=updates,
        ainit_pos=ainit,
    )


def _ragged_arange(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(starts[i], starts[i] + lengths[i])`` over ``i``."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(int(lengths.sum()), dtype=np.int64)


def _block_index(rloc: np.ndarray, ncols: int) -> tuple:
    """``(rows, cols)`` such that ``panel[rows, cols]`` is an update's block.

    ``rloc`` holds the strictly increasing panel-local rows of the block and
    its leading ``ncols`` entries are the local columns.  Contiguous ranges
    become slices (basic indexing, no index array kept); when both stay
    index arrays the rows are shaped ``(R, 1)`` so that they broadcast
    against the columns.
    """

    def compact(idx: np.ndarray):
        lo, hi = int(idx[0]), int(idx[-1]) + 1
        return slice(lo, hi) if hi - lo == idx.shape[0] else idx

    rows, cols = compact(rloc), compact(rloc[:ncols])
    if isinstance(cols, np.ndarray):
        rows = rloc[:, None]
    return rows, cols


def _canonical_csc(A: sp.spmatrix) -> sp.csc_matrix:
    """CSC form with sorted indices, copying only when necessary."""
    csc = A.tocsc()
    if not csc.has_sorted_indices:
        csc = csc.copy()
        csc.sort_indices()
    return csc


def _column_structures(
    n: int, a_indptr: np.ndarray, a_rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elimination tree and CSC pattern of ``L`` by a bottom-up column merge.

    ``struct(L[:, j]) = struct(A[j:, j]) ∪ ⋃ struct(L[:, c]) \\ {c}`` over the
    elimination-tree children ``c`` of ``j`` (Liu 1990), and
    ``parent(c) = min(struct(L[:, c]) \\ {c})`` — so the tree is discovered on
    the way: every child of ``j`` is an earlier column and has left its
    suffix in ``pending[j]`` by the time column ``j`` is merged.  One sorted
    union per column; the interpreted work is ``O(n)``, not ``O(nnz(L))``.

    ``a_indptr`` / ``a_rows`` are the CSC lower triangle of the permuted
    matrix (sorted rows).  Returns ``(parent, col_ptr, row_idx)``.
    """
    parent = np.full(n, -1, dtype=np.int64)
    diag = np.arange(n, dtype=np.int64)
    structs: list[np.ndarray] = []
    pending: dict[int, list[np.ndarray]] = {}
    for j in range(n):
        parts = pending.pop(j, [])
        parts += (diag[j : j + 1], a_rows[a_indptr[j] : a_indptr[j + 1]])
        # The parts are sorted runs, which the stable (merging) sort exploits.
        merged = np.sort(np.concatenate(parts), kind="stable")
        keep = np.ones(merged.shape[0], dtype=bool)
        np.not_equal(merged[1:], merged[:-1], out=keep[1:])
        rows = merged[keep]
        structs.append(rows)
        if rows.shape[0] > 1:
            p = int(rows[1])
            parent[j] = p
            pending.setdefault(p, []).append(rows[1:])
    col_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([rows.shape[0] for rows in structs], out=col_ptr[1:])
    row_idx = np.concatenate(structs) if structs else np.empty(0, dtype=np.int64)
    return parent, col_ptr, row_idx


def _require_symmetric_pattern(csc: sp.csc_matrix) -> None:
    """Raise unless the stored pattern equals the pattern of its transpose.

    The analysis reads the lower triangle of the permuted pattern only, so a
    matrix stored as one triangle (or structurally unsymmetric) would
    silently get a too-small factor pattern.
    """
    transposed = _canonical_csc(csc.T)
    if not (
        np.array_equal(transposed.indptr, csc.indptr)
        and np.array_equal(transposed.indices, csc.indices)
    ):
        raise ValueError(
            "matrix pattern is not structurally symmetric; symbolic_cholesky "
            "needs both triangles stored"
        )


def symbolic_cholesky(
    A: sp.spmatrix,
    ordering: OrderingMethod | str = OrderingMethod.RCM,
    perm: np.ndarray | None = None,
    relax: float = RELAX_PADDING,
    max_supernode: int = MAX_SUPERNODE,
) -> SymbolicFactor:
    """Symbolic Cholesky factorization of an SPD matrix.

    Parameters
    ----------
    A:
        Symmetric positive definite sparse matrix (only the pattern is used;
        it must be structurally symmetric, i.e. both triangles stored).
    ordering:
        Fill-reducing ordering method (ignored when ``perm`` is given).
    perm:
        Optional externally computed permutation.
    relax:
        Relaxed-amalgamation padding tolerance (see :func:`detect_supernodes`).
    max_supernode:
        Maximal columns per supernode.

    Raises
    ------
    ValueError
        If ``A`` is not square, its stored pattern is not symmetric, or
        ``perm`` has the wrong shape.
    """
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    csc = _canonical_csc(A)
    _require_symmetric_pattern(csc)
    if perm is not None:
        perm = np.asarray(perm, dtype=np.int64)
        if perm.shape != (n,):
            raise ValueError("perm has wrong shape")
    elif n:
        perm = compute_ordering(A, ordering)
    else:  # nothing to order (and RCM cannot reduce over an empty graph)
        perm = np.empty(0, dtype=np.int64)

    # One-pass permutation: classify every stored entry of A by its permuted
    # coordinates and lexsort once, which yields the permuted lower triangle
    # as CSC (driving the column merge) together with the map from A's
    # canonical CSC data into that layout (reused by every numeric
    # factorization of the same pattern).
    inv_perm = np.empty(n, dtype=np.int64)
    inv_perm[perm] = np.arange(n, dtype=np.int64)
    rows = np.asarray(csc.indices, dtype=np.int64)
    cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(csc.indptr))
    pr, pc = inv_perm[rows], inv_perm[cols]
    low_src = np.flatnonzero(pr >= pc)
    lr, lc = pr[low_src], pc[low_src]
    order_csc = np.lexsort((lr, lc))
    a_lower_indptr = np.concatenate(
        ([0], np.cumsum(np.bincount(lc, minlength=n)))
    ).astype(np.int64)
    a_lower_rows = lr[order_csc]
    a_lower_map = low_src[order_csc]

    parent, col_ptr, row_idx = _column_structures(n, a_lower_indptr, a_lower_rows)
    snode_ptr = detect_supernodes(
        parent, np.diff(col_ptr), relax=relax, max_width=max_supernode
    )
    partition = _build_partition(
        n, col_ptr, row_idx, snode_ptr, a_lower_indptr, a_lower_rows
    )

    lower_nnz = max(int(low_src.shape[0]), 1)
    return SymbolicFactor(
        n=n,
        perm=perm,
        parent=parent,
        col_ptr=col_ptr,
        row_idx=row_idx,
        fill_ratio=float(int(col_ptr[-1]) / lower_nnz),
        supernodes=partition,
        a_indptr=np.asarray(csc.indptr, dtype=np.int64),
        a_indices=rows,
        a_lower_indptr=a_lower_indptr,
        a_lower_rows=a_lower_rows,
        a_lower_map=a_lower_map,
    )
