"""Test oracle: the scalar sparse Cholesky kernels and the per-entry analysis.

Two independent references for :mod:`repro.sparse`:

* the classic left-looking *column* factorization and the per-column forward /
  backward substitutions.  They read only the factor's CSC pattern and values
  — no band, no supernode partition, no cached permutation maps — so they
  check the banded factorization and solves and the Schur assembly;
* the pure-Python symbolic analysis :func:`symbolic_reference` (Liu's
  elimination tree with path compression, row patterns by tree reach) that
  ``repro.sparse.symbolic`` ran before it went to array form, and then to a
  bitset merge.  The production analysis must reproduce its elimination
  tree, its factor pattern, its permutation maps and its supernode split bit
  for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.sparse.ordering import OrderingMethod, compute_ordering
from repro.sparse.symbolic import (
    MAX_SUPERNODE,
    RELAX_PADDING,
    Relax,
    SymbolicFactor,
    _canonical_csc,
    detect_supernodes,
)

__all__ = [
    "ReferenceAnalysis",
    "elimination_tree",
    "symbolic_reference",
    "assert_matches_reference",
    "ScalarFactor",
    "numeric_scalar",
    "trsv_lower",
    "trsv_upper",
    "trsm_lower",
    "trsm_upper",
    "csc_solve_lower",
    "csc_solve_upper",
    "schur_complement",
]


@dataclass
class ScalarFactor:
    """A factor as the column algorithm stores it: CSC values of ``L`` only."""

    symbolic: SymbolicFactor
    values: np.ndarray

    def to_csc(self) -> sp.csc_matrix:
        s = self.symbolic
        return sp.csc_matrix((self.values, s.row_idx, s.col_ptr), shape=(s.n, s.n))


def numeric_scalar(A: sp.spmatrix, s: SymbolicFactor) -> ScalarFactor:
    """Left-looking column Cholesky of ``P A Pᵀ`` on the pattern of ``s``.

    Column ``j`` starts as the lower triangle of the permuted ``A``'s column
    ``j``, receives one update from every earlier column ``k`` with
    ``L[j, k] != 0`` and is scaled by the square root of its diagonal.
    """
    lower = sp.tril(sp.csc_matrix(A)[s.perm][:, s.perm]).tocsc()
    lower.sort_indices()
    n, col_ptr, row_idx = s.n, s.col_ptr, s.row_idx
    row_ptr, row_cols = _row_structure(n, col_ptr, row_idx)
    values = np.zeros(row_idx.shape[0])
    cursor = col_ptr[:-1].copy() + 1  # next unconsumed sub-diagonal entry
    scratch = np.zeros(n)
    for j in range(n):
        pattern = row_idx[col_ptr[j] : col_ptr[j + 1]]
        scratch[pattern] = 0.0
        sl = slice(lower.indptr[j], lower.indptr[j + 1])
        scratch[lower.indices[sl]] = lower.data[sl]
        for k in row_cols[row_ptr[j] : row_ptr[j + 1]]:
            pos = cursor[k]  # the first unconsumed entry of column k is row j
            scratch[row_idx[pos : col_ptr[k + 1]]] -= (
                values[pos] * values[pos : col_ptr[k + 1]]
            )
            cursor[k] = pos + 1
        diag = scratch[j]
        if not diag > 0.0:
            raise np.linalg.LinAlgError(f"non-positive pivot {diag!r} in column {j}")
        colvals = scratch[pattern] / np.sqrt(diag)
        colvals[0] = np.sqrt(diag)
        values[col_ptr[j] : col_ptr[j + 1]] = colvals
    return ScalarFactor(symbolic=s, values=values)


def _row_structure(
    n: int, col_ptr: np.ndarray, row_idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """CSR view of the strictly-lower pattern: per row the columns ``k < j``."""
    cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(col_ptr))
    below = row_idx != cols
    rows, cols = row_idx[below], cols[below]
    order = np.argsort(rows, kind="stable")  # CSC order has ascending columns
    row_ptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    return row_ptr.astype(np.int64), cols[order]


def _forward(indptr, indices, data, b: np.ndarray, start_row: int = 0) -> np.ndarray:
    y = np.array(b, dtype=float)
    for j in range(start_row, indptr.shape[0] - 1):
        p0, p1 = indptr[j], indptr[j + 1]
        y[j] /= data[p0]
        # one column of L against every right-hand side of a 2-D ``b``
        y[indices[p0 + 1 : p1]] -= np.multiply.outer(data[p0 + 1 : p1], y[j])
    return y


def _backward(indptr, indices, data, b: np.ndarray) -> np.ndarray:
    x = np.array(b, dtype=float)
    for j in range(indptr.shape[0] - 2, -1, -1):
        p0, p1 = indptr[j], indptr[j + 1]
        x[j] = (x[j] - data[p0 + 1 : p1] @ x[indices[p0 + 1 : p1]]) / data[p0]
    return x


def _columnwise(solve, B: np.ndarray) -> np.ndarray:
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        return solve(B)
    return np.column_stack([solve(B[:, j]) for j in range(B.shape[1])])


def trsv_lower(factor, b: np.ndarray, start_row: int = 0) -> np.ndarray:
    """``L y = b``, one column of ``L`` at a time.

    ``factor`` is a :class:`ScalarFactor` or a production ``CholeskyFactor``:
    either way only the CSC values of :meth:`to_csc` are read.
    """
    s = factor.symbolic
    return _forward(s.col_ptr, s.row_idx, factor.to_csc().data, b, start_row)


def trsv_upper(factor, b: np.ndarray) -> np.ndarray:
    """``Lᵀ x = b``, one column of ``L`` at a time."""
    s = factor.symbolic
    return _backward(s.col_ptr, s.row_idx, factor.to_csc().data, b)


def trsm_lower(factor, B: np.ndarray) -> np.ndarray:
    """``L Y = B``, one right-hand side at a time."""
    return _columnwise(lambda b: trsv_lower(factor, b), B)


def trsm_upper(factor, B: np.ndarray) -> np.ndarray:
    """``Lᵀ X = B``, one right-hand side at a time."""
    return _columnwise(lambda b: trsv_upper(factor, b), B)


def _sorted_csc(L: sp.spmatrix) -> sp.csc_matrix:
    Lc = sp.csc_matrix(L)
    Lc.sort_indices()
    return Lc


def csc_solve_lower(L: sp.spmatrix, B: np.ndarray, start_row: int = 0) -> np.ndarray:
    """``L Y = B`` for a plain lower-triangular SciPy matrix (1-D or 2-D)."""
    Lc = _sorted_csc(L)
    return _columnwise(
        lambda b: _forward(Lc.indptr, Lc.indices, Lc.data, b, start_row), B
    )


def csc_solve_upper(L: sp.spmatrix, B: np.ndarray) -> np.ndarray:
    """``Lᵀ X = B`` given the plain lower-triangular SciPy matrix ``L``."""
    Lc = _sorted_csc(L)
    return _columnwise(lambda b: _backward(Lc.indptr, Lc.indices, Lc.data, b), B)


def schur_complement(factor, B: sp.spmatrix) -> np.ndarray:
    """``B K⁻¹ Bᵀ = Wᵀ W`` with ``W = L⁻¹ P Bᵀ``, in ``B``'s own column order.

    The forward solve walks ``L`` one column at a time, over every row of
    every right-hand side at once: no panels, no start rows, no pruning.
    """
    s = factor.symbolic
    rhs = sp.csr_matrix(B)[:, s.perm].toarray().T
    W = _forward(s.col_ptr, s.row_idx, factor.to_csc().data, rhs)
    return W.T @ W


# --------------------------------------------------------------------- #
# The per-entry symbolic analysis (bit-identity oracle)                  #
# --------------------------------------------------------------------- #
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


@dataclass
class ReferenceAnalysis:
    """Every field of the per-entry analysis (pattern + supernode split)."""

    n: int
    perm: np.ndarray
    parent: np.ndarray
    col_ptr: np.ndarray
    row_idx: np.ndarray
    row_ptr: np.ndarray
    row_cols: np.ndarray
    a_indptr: np.ndarray
    a_indices: np.ndarray
    a_lower_indptr: np.ndarray
    a_lower_rows: np.ndarray
    a_lower_map: np.ndarray
    snode_ptr: np.ndarray
    widths: np.ndarray
    heights: np.ndarray
    panel_off: np.ndarray
    below_rows: list[np.ndarray]
    #: Panel position of every entry of ``L`` (CSC order).
    lpos: np.ndarray


def symbolic_reference(
    A: sp.spmatrix,
    ordering: OrderingMethod | str = OrderingMethod.RCM,
    perm: np.ndarray | None = None,
    relax: Relax = RELAX_PADDING,
    max_supernode: int = MAX_SUPERNODE,
) -> ReferenceAnalysis:
    """The symbolic analysis, one interpreted step per factor entry."""
    n = A.shape[0]
    if perm is None:
        perm = compute_ordering(A, ordering)
    else:
        perm = np.asarray(perm, dtype=np.int64)

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
    # A's data position of each lower entry, in its canonical CSR: the CSC
    # entry's position converted by SciPy (the index arrays are the same
    # pair, the pattern being symmetric).
    csr_position = sp.csr_matrix(
        (np.arange(rows.size), csc.indices, csc.indptr), shape=(n, n)
    ).tocsc().data
    a_lower_map = csr_position[low_src[order_csc]]

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

    # Dense-panel layout: every entry of L placed by a scan of its panel's rows.
    nsuper = snode_ptr.shape[0] - 1
    widths = np.diff(snode_ptr)
    below_rows: list[np.ndarray] = []
    for s in range(nsuper):
        last = snode_ptr[s + 1] - 1
        below_rows.append(row_idx[col_ptr[last] + 1 : col_ptr[last + 1]])
    heights = widths + np.array([b.shape[0] for b in below_rows], dtype=np.int64)
    panel_off = np.concatenate(([0], np.cumsum(heights * widths))).astype(np.int64)
    lpos = np.empty(row_idx.shape[0], dtype=np.int64)
    for s in range(nsuper):
        j0, j1, w = int(snode_ptr[s]), int(snode_ptr[s + 1]), int(widths[s])
        panel_rows = list(range(j0, j1)) + below_rows[s].tolist()
        for c, j in enumerate(range(j0, j1)):
            for e in range(col_ptr[j], col_ptr[j + 1]):
                lpos[e] = panel_off[s] + panel_rows.index(int(row_idx[e])) * w + c

    return ReferenceAnalysis(
        n=n,
        perm=perm,
        parent=parent,
        col_ptr=col_ptr,
        row_idx=row_idx,
        row_ptr=row_ptr,
        row_cols=row_cols,
        a_indptr=np.asarray(csc.indptr, dtype=np.int64),
        a_indices=rows,
        a_lower_indptr=a_lower_indptr,
        a_lower_rows=a_lower_rows,
        a_lower_map=a_lower_map,
        snode_ptr=snode_ptr,
        widths=widths,
        heights=heights,
        panel_off=panel_off,
        below_rows=below_rows,
        lpos=lpos,
    )


def assert_matches_reference(symbolic: SymbolicFactor, ref: ReferenceAnalysis) -> None:
    """Every field of the production analysis equals the per-entry one, bit for bit."""

    def same(name: str, got: np.ndarray, want: np.ndarray) -> None:
        assert got.dtype == want.dtype and np.array_equal(got, want), name

    assert symbolic.n == ref.n
    for name in (
        "perm", "parent", "col_ptr", "row_idx",
        "a_indptr", "a_indices",
    ):  # fmt: skip
        same(name, getattr(symbolic, name), getattr(ref, name))
    # The scatter of A into the band, entry by entry in band order (which is
    # the reference's CSC order of the permuted lower triangle).
    lower_cols = np.repeat(np.arange(ref.n, dtype=np.int64), np.diff(ref.a_lower_indptr))
    order = np.argsort(symbolic.a_band_pos)
    same("a_lower_map", symbolic.a_lower_map[order], ref.a_lower_map)
    same(
        "a_band_pos",
        symbolic.a_band_pos[order],
        lower_cols * (symbolic.kd + 1) + (ref.a_lower_rows - lower_cols),
    )
    part = symbolic.supernodes
    for name in ("snode_ptr", "widths", "heights", "panel_off"):
        same(name, getattr(part, name), getattr(ref, name))
    # The gather maps, entry by entry: band position -> panel position.
    cols = np.repeat(np.arange(ref.n, dtype=np.int64), np.diff(ref.col_ptr))
    offsets = ref.row_idx - cols
    band_pos = cols * (int(offsets.max(initial=0)) + 1) + offsets
    order = np.argsort(ref.lpos)
    same("panel_pos", part.panel_pos, ref.lpos[order])
    same("band_pos", part.band_pos, band_pos[order])
    assert len(part.below_rows) == len(ref.below_rows) == part.n_supernodes
    for s, (got, want) in enumerate(zip(part.below_rows, ref.below_rows)):
        same(f"below_rows[{s}]", got, want)
