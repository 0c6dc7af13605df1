"""Test oracle: the scalar sparse Cholesky kernels and the per-entry analysis.

Two independent references for :mod:`repro.sparse`:

* the classic left-looking *column* factorization and the per-column forward /
  backward substitutions the package ran before everything moved onto
  supernode panels.  They read only the factor's CSC pattern and values — no
  supernode partition, no dense panels, no cached permutation maps — so they
  check the supernodal factorization, the panel TRSV/TRSM kernels and the
  Schur assembly;
* the pure-Python symbolic analysis :func:`symbolic_reference` (Liu's
  elimination tree with path compression, row patterns by tree reach, one
  ``_panel_positions`` call per column, one flat ``rows x cols`` scatter array
  per left-looking update) that ``repro.sparse.symbolic`` ran before it went
  to array form, with :func:`numeric_reference` consuming those flat scatter
  maps.  The array-form analysis must reproduce every field of it bit for
  bit, and factor to identical panels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpotrf, dtrtrs

from repro.sparse.numeric import CholeskyFactor
from repro.sparse.ordering import OrderingMethod, compute_ordering
from repro.sparse.symbolic import (
    MAX_SUPERNODE,
    RELAX_PADDING,
    SymbolicFactor,
    _canonical_csc,
    _panel_positions,
    detect_supernodes,
)

__all__ = [
    "ReferenceAnalysis",
    "elimination_tree",
    "symbolic_reference",
    "numeric_reference",
    "update_scatter",
    "assert_matches_reference",
    "numeric_scalar",
    "trsv_lower",
    "trsv_upper",
    "trsm_lower",
    "trsm_upper",
    "csc_solve_lower",
    "csc_solve_upper",
    "schur_complement",
]


def numeric_scalar(A: sp.spmatrix, s: SymbolicFactor) -> CholeskyFactor:
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
    return CholeskyFactor(symbolic=s, values=values)


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
        y[indices[p0 + 1 : p1]] -= data[p0 + 1 : p1] * y[j]
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


def trsv_lower(factor: CholeskyFactor, b: np.ndarray, start_row: int = 0) -> np.ndarray:
    """``L y = b``, one column of ``L`` at a time."""
    s = factor.symbolic
    return _forward(s.col_ptr, s.row_idx, factor.values, b, start_row)


def trsv_upper(factor: CholeskyFactor, b: np.ndarray) -> np.ndarray:
    """``Lᵀ x = b``, one column of ``L`` at a time."""
    s = factor.symbolic
    return _backward(s.col_ptr, s.row_idx, factor.values, b)


def trsm_lower(factor: CholeskyFactor, B: np.ndarray) -> np.ndarray:
    """``L Y = B``, one right-hand side at a time."""
    return _columnwise(lambda b: trsv_lower(factor, b), B)


def trsm_upper(factor: CholeskyFactor, B: np.ndarray) -> np.ndarray:
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


def schur_complement(factor: CholeskyFactor, B: sp.spmatrix) -> np.ndarray:
    """``B K⁻¹ Bᵀ = Wᵀ W`` with ``W = L⁻¹ P Bᵀ`` solved column by column."""
    rhs = sp.csr_matrix(B)[:, factor.symbolic.perm].toarray().T
    W = trsm_lower(factor, rhs)
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
    """Every field of the per-entry analysis (pattern + panel layout)."""

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
    col_to_snode: np.ndarray
    widths: np.ndarray
    heights: np.ndarray
    panel_off: np.ndarray
    below_rows: list[np.ndarray]
    lpos: np.ndarray
    ainit_pos: np.ndarray
    #: ``updates[j]`` = ``[(k, i0, i1, scatter), ...]`` with ``scatter`` the
    #: flat ``rows x cols`` positions relative to panel ``j``.
    updates: list[list[tuple[int, int, int, np.ndarray]]]


def symbolic_reference(
    A: sp.spmatrix,
    ordering: OrderingMethod | str = OrderingMethod.RCM,
    perm: np.ndarray | None = None,
    relax: float = RELAX_PADDING,
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

    # Dense-panel layout: one ``_panel_positions`` call per column.
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
    ainit = np.empty(a_lower_rows.shape[0], dtype=np.int64)
    for s in range(nsuper):
        j0, j1 = int(snode_ptr[s]), int(snode_ptr[s + 1])
        w = int(widths[s])
        below = below_rows[s]
        off = int(panel_off[s])
        for c, j in enumerate(range(j0, j1)):
            rows_j = row_idx[col_ptr[j] : col_ptr[j + 1]]
            loc = _panel_positions(rows_j, j0, j1, w, below)
            lpos[col_ptr[j] : col_ptr[j + 1]] = off + loc * w + c
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
        col_to_snode=col_to_snode,
        widths=widths,
        heights=heights,
        panel_off=panel_off,
        below_rows=below_rows,
        lpos=lpos,
        ainit_pos=ainit,
        updates=updates,
    )


def update_scatter(update: tuple, height: int, width: int) -> np.ndarray:
    """Flat ``rows x cols`` scatter of an array-form ``(k, i0, i1, rows, cols)``."""
    *_, rows, cols = update
    rloc = np.arange(height)[rows].reshape(-1, 1)
    return (rloc * width + np.arange(width)[cols]).ravel()


def assert_matches_reference(symbolic: SymbolicFactor, ref: ReferenceAnalysis) -> None:
    """Every field of an array-form analysis equals the per-entry one, bit for bit."""

    def same(name: str, got: np.ndarray, want: np.ndarray) -> None:
        assert got.dtype == want.dtype and np.array_equal(got, want), name

    part = symbolic.supernodes
    assert symbolic.n == ref.n
    for name in (
        "perm", "parent", "col_ptr", "row_idx",
        "a_indptr", "a_indices", "a_lower_indptr", "a_lower_rows", "a_lower_map",
    ):  # fmt: skip
        same(name, getattr(symbolic, name), getattr(ref, name))
    for name in (
        "snode_ptr", "col_to_snode", "widths", "heights", "panel_off", "lpos", "ainit_pos"
    ):  # fmt: skip
        same(name, getattr(part, name), getattr(ref, name))
    assert len(part.below_rows) == len(ref.below_rows) == part.n_supernodes
    for s, (got, want) in enumerate(zip(part.below_rows, ref.below_rows)):
        same(f"below_rows[{s}]", got, want)
    assert len(part.updates) == len(ref.updates) == part.n_supernodes
    for j, (got, want) in enumerate(zip(part.updates, ref.updates)):
        assert [u[:3] for u in got] == [u[:3] for u in want], f"updates[{j}]"
        h, w = int(part.heights[j]), int(part.widths[j])
        for new, old in zip(got, want):
            same(f"updates[{j}] from {old[0]}", update_scatter(new, h, w), old[3])


def numeric_reference(A: sp.spmatrix, ref: ReferenceAnalysis) -> np.ndarray:
    """Supernodal left-looking factor panels driven by the flat scatter maps.

    ``A`` must have exactly the analysed pattern.  Returns the flat panel
    storage (the ``_panel_values`` of the production factor).
    """
    adata = _canonical_csc(A).data[ref.a_lower_map]
    flat = np.zeros(int(ref.panel_off[-1]))
    flat[ref.ainit_pos] = adata
    widths, heights, panel_off = ref.widths, ref.heights, ref.panel_off
    for j in range(widths.shape[0]):
        w, h = int(widths[j]), int(heights[j])
        pflat = flat[panel_off[j] : panel_off[j + 1]]
        pv = pflat.reshape(h, w)
        for k, i0, i1, scatter in ref.updates[j]:
            wk = int(widths[k])
            pk = flat[panel_off[k] : panel_off[k + 1]].reshape(-1, wk)
            trailing = pk[wk + i0 :, :]
            contrib = trailing @ pk[wk + i0 : wk + i1, :].T
            pflat[scatter] -= contrib.ravel()
        ltop, info = dpotrf(pv[:w, :w], lower=1, clean=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"non-positive pivot in supernode {j}")
        pv[:w, :w] = ltop
        if h > w:
            sol, info = dtrtrs(ltop, pv[w:, :].T, lower=1)
            pv[w:, :] = sol.T
    return flat
