"""Test oracle: the scalar (per-column) sparse Cholesky kernels.

The classic left-looking *column* factorization and the per-column forward /
backward substitutions :mod:`repro.sparse` ran before everything moved onto
supernode panels.  They read only the factor's CSC pattern and values — no
supernode partition, no dense panels, no cached permutation maps — so they are
an independent check of the supernodal factorization, the panel TRSV/TRSM
kernels and the Schur assembly.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.sparse.numeric import CholeskyFactor
from repro.sparse.symbolic import SymbolicFactor

__all__ = [
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
    values = np.zeros(row_idx.shape[0])
    cursor = col_ptr[:-1].copy() + 1  # next unconsumed sub-diagonal entry
    scratch = np.zeros(n)
    for j in range(n):
        pattern = row_idx[col_ptr[j] : col_ptr[j + 1]]
        scratch[pattern] = 0.0
        sl = slice(lower.indptr[j], lower.indptr[j + 1])
        scratch[lower.indices[sl]] = lower.data[sl]
        for k in s.row_cols[s.row_ptr[j] : s.row_ptr[j + 1]]:
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
