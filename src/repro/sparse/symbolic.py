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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.sparse.ordering import OrderingMethod, compute_ordering

__all__ = [
    "SupernodePartition",
    "SymbolicFactor",
    "elimination_tree",
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
    scatter.  ``updates[j]`` lists the left-looking contributions into
    supernode ``j`` as ``(k, i0, i1, scatter)``: the below-rows ``i0:i1`` of
    an earlier supernode ``k`` fall inside panel ``j``'s column range, and
    ``scatter`` holds the flat positions (relative to panel ``j``) where the
    GEMM contribution lands — precomputed once per pattern so every numeric
    factorization scatters with a single fancy-index subtraction.
    """

    snode_ptr: np.ndarray
    col_to_snode: np.ndarray
    widths: np.ndarray
    heights: np.ndarray
    panel_off: np.ndarray
    below_rows: list[np.ndarray]
    lpos: np.ndarray
    updates: list[list[tuple[int, int, int, np.ndarray]]]
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
    row_ptr, row_cols:
        CSR view of the strictly-lower pattern: for every row ``j`` the
        columns ``k < j`` with ``L[j, k] != 0``.
    """

    n: int
    perm: np.ndarray
    parent: np.ndarray
    col_ptr: np.ndarray
    row_idx: np.ndarray
    row_ptr: np.ndarray
    row_cols: np.ndarray

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


def _etree_from_arrays(indptr: np.ndarray, indices: np.ndarray, n: int) -> np.ndarray:
    """Liu's elimination-tree algorithm on a lower-triangular CSR pattern."""
    parent = np.full(n, -1, dtype=np.int64)
    ancestor = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        for p in range(indptr[i], indptr[i + 1]):
            k = int(indices[p])
            if k >= i:
                continue
            # Walk from k to the root of its current subtree, compressing paths.
            while k != -1 and k < i:
                knext = int(ancestor[k])
                ancestor[k] = i
                if knext == -1:
                    parent[k] = i
                    break
                k = knext
    return parent


def elimination_tree(lower: sp.csr_matrix) -> np.ndarray:
    """Elimination tree of a symmetric matrix given its lower-triangular CSR.

    Implements Liu's algorithm with path compression (the ``ancestor``
    array).  Returns the ``parent`` array with ``-1`` marking roots.
    """
    n = lower.shape[0]
    return _etree_from_arrays(lower.indptr, lower.indices, n)


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
    boundaries = [0]
    exact = int(col_counts[0]) if n else 0
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
    a_lower_indptr: np.ndarray | None,
    a_lower_rows: np.ndarray | None,
) -> SupernodePartition:
    """Derive the dense-panel layout and update lists of a supernode split."""
    nsuper = snode_ptr.shape[0] - 1
    widths = np.diff(snode_ptr)
    col_to_snode = np.repeat(np.arange(nsuper, dtype=np.int64), widths)
    below_rows: list[np.ndarray] = []
    for s in range(nsuper):
        last = snode_ptr[s + 1] - 1
        below_rows.append(row_idx[col_ptr[last] + 1 : col_ptr[last + 1]])
    heights = widths + np.array([b.shape[0] for b in below_rows], dtype=np.int64)
    panel_off = np.concatenate(([0], np.cumsum(heights * widths))).astype(np.int64)

    lpos = np.empty(row_idx.shape[0], dtype=np.int64)
    ainit = (
        np.empty(a_lower_rows.shape[0], dtype=np.int64)
        if a_lower_rows is not None
        else None
    )
    for s in range(nsuper):
        j0, j1 = int(snode_ptr[s]), int(snode_ptr[s + 1])
        w = int(widths[s])
        below = below_rows[s]
        off = int(panel_off[s])
        for c, j in enumerate(range(j0, j1)):
            rows = row_idx[col_ptr[j] : col_ptr[j + 1]]
            loc = _panel_positions(rows, j0, j1, w, below)
            lpos[col_ptr[j] : col_ptr[j + 1]] = off + loc * w + c
            if ainit is not None:
                arows = a_lower_rows[a_lower_indptr[j] : a_lower_indptr[j + 1]]
                aloc = _panel_positions(arows, j0, j1, w, below)
                ainit[a_lower_indptr[j] : a_lower_indptr[j + 1]] = off + aloc * w + c

    updates: list[list[tuple[int, int, int, np.ndarray]]] = [
        [] for _ in range(nsuper)
    ]
    for k in range(nsuper):
        bk = below_rows[k]
        if bk.shape[0] == 0:
            continue
        targets = col_to_snode[bk]
        cut = np.flatnonzero(np.diff(targets)) + 1
        starts = np.concatenate(([0], cut))
        ends = np.concatenate((cut, [bk.shape[0]]))
        for a, b in zip(starts, ends):
            j = int(targets[a])
            j0, j1 = int(snode_ptr[j]), int(snode_ptr[j + 1])
            w = int(widths[j])
            rloc = _panel_positions(bk[a:], j0, j1, w, below_rows[j])
            cloc = bk[a:b] - j0
            scatter = (rloc[:, None] * w + cloc[None, :]).ravel()
            updates[j].append((k, int(a), int(b), scatter))

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


def _canonical_csc(A: sp.spmatrix) -> sp.csc_matrix:
    """CSC form with sorted indices, copying only when necessary."""
    csc = A.tocsc()
    if not csc.has_sorted_indices:
        csc = csc.copy()
        csc.sort_indices()
    return csc


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
        Symmetric positive definite sparse matrix (only the pattern is used).
    ordering:
        Fill-reducing ordering method (ignored when ``perm`` is given).
    perm:
        Optional externally computed permutation.
    relax:
        Relaxed-amalgamation padding tolerance (see :func:`detect_supernodes`).
    max_supernode:
        Maximal columns per supernode.
    """
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if perm is None:
        perm = compute_ordering(A, ordering)
    else:
        perm = np.asarray(perm, dtype=np.int64)
        if perm.shape != (n,):
            raise ValueError("perm has wrong shape")

    # One-pass permutation: classify every stored entry of A by its permuted
    # coordinates and lexsort, instead of two fancy-index passes through
    # SciPy.  Produces the permuted lower triangle both as CSR (driving the
    # elimination tree and the row-pattern reach) and as CSC together with
    # the map from A's canonical CSC data into that layout (reused by every
    # numeric factorization of the same pattern).
    csc = _canonical_csc(A)
    inv_perm = np.empty(n, dtype=np.int64)
    inv_perm[perm] = np.arange(n, dtype=np.int64)
    rows = np.asarray(csc.indices, dtype=np.int64)
    cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(csc.indptr))
    pr, pc = inv_perm[rows], inv_perm[cols]
    low = pr >= pc
    lr, lc = pr[low], pc[low]
    low_src = np.flatnonzero(low)

    order_csr = np.lexsort((lc, lr))
    csr_indptr = np.concatenate(
        ([0], np.cumsum(np.bincount(lr, minlength=n)))
    ).astype(np.int64)
    csr_indices = lc[order_csr]

    order_csc = np.lexsort((lr, lc))
    a_lower_indptr = np.concatenate(
        ([0], np.cumsum(np.bincount(lc, minlength=n)))
    ).astype(np.int64)
    a_lower_rows = lr[order_csc]
    a_lower_map = low_src[order_csc]

    parent = _etree_from_arrays(csr_indptr, csr_indices, n)

    # Row patterns of L (strictly lower part) through elimination-tree reach.
    marker = np.full(n, -1, dtype=np.int64)
    row_cols_list: list[np.ndarray] = []
    row_counts = np.zeros(n, dtype=np.int64)
    col_counts = np.ones(n, dtype=np.int64)  # diagonal entries
    for i in range(n):
        marker[i] = i
        cols_i: list[int] = []
        for p in range(csr_indptr[i], csr_indptr[i + 1]):
            k = int(csr_indices[p])
            if k >= i:
                continue
            while marker[k] != i:
                cols_i.append(k)
                marker[k] = i
                col_counts[k] += 1
                k = int(parent[k])
                if k == -1:  # pragma: no cover - defensive; parent[k]<i always set
                    break
        cols_arr = np.asarray(sorted(cols_i), dtype=np.int64)
        row_cols_list.append(cols_arr)
        row_counts[i] = cols_arr.shape[0]

    row_ptr = np.concatenate([[0], np.cumsum(row_counts)]).astype(np.int64)
    row_cols = (
        np.concatenate(row_cols_list) if row_cols_list else np.empty(0, dtype=np.int64)
    ).astype(np.int64)

    # Column pattern (CSC) of L: transpose the strictly-lower row pattern and
    # prepend the diagonal entry to every column.
    col_ptr = np.concatenate([[0], np.cumsum(col_counts)]).astype(np.int64)
    row_idx = np.empty(int(col_ptr[-1]), dtype=np.int64)
    fill_pos = col_ptr[:-1].copy()
    for j in range(n):
        row_idx[fill_pos[j]] = j  # diagonal first
        fill_pos[j] += 1
    for i in range(n):
        for k in row_cols[row_ptr[i] : row_ptr[i + 1]]:
            row_idx[fill_pos[k]] = i
            fill_pos[k] += 1

    snode_ptr = detect_supernodes(
        parent, col_counts, relax=relax, max_width=max_supernode
    )
    partition = _build_partition(
        n, col_ptr, row_idx, snode_ptr, a_lower_indptr, a_lower_rows
    )

    lower_nnz = max(int(low_src.shape[0]), 1)
    symbolic = SymbolicFactor(
        n=n,
        perm=perm,
        parent=parent,
        col_ptr=col_ptr,
        row_idx=row_idx,
        row_ptr=row_ptr,
        row_cols=row_cols,
        fill_ratio=float(int(col_ptr[-1]) / lower_nnz),
        supernodes=partition,
        a_indptr=np.asarray(csc.indptr, dtype=np.int64),
        a_indices=rows,
        a_lower_indptr=a_lower_indptr,
        a_lower_rows=a_lower_rows,
        a_lower_map=a_lower_map,
    )
    return symbolic
