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
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.sparse.numeric import CholeskyFactor
from repro.sparse.triangular import solve_lower_inplace

__all__ = ["schur_complement", "rhs_sparsity_fill", "column_first_rows"]


def column_first_rows(Bt: sp.csc_matrix, row_map: np.ndarray | None = None) -> np.ndarray:
    """Smallest (optionally re-mapped) row index of every nonempty column.

    Returns an ``int64`` array with one entry per *nonempty* column of the
    CSC matrix, computed with one segmented reduction instead of a Python
    loop per column.  ``row_map`` re-maps row indices (e.g. into the
    permuted ordering) before taking the minimum.
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


def rhs_sparsity_fill(B: sp.spmatrix, perm: np.ndarray) -> float:
    """Average fraction of forward-solve rows that cannot be skipped.

    For every column of ``P B̃ᵀ`` the forward substitution only needs rows
    from the first nonzero onward; this returns the mean of
    ``(n - first_nonzero) / n`` over the columns, the quantity the CPU cost
    model uses to represent how much work the augmented incomplete
    factorization saves.
    """
    Bt = sp.csc_matrix(sp.csr_matrix(B).T)
    n = Bt.shape[0]
    if Bt.shape[1] == 0 or n == 0:
        return 1.0
    inv_perm = np.empty_like(perm)
    inv_perm[perm] = np.arange(perm.shape[0])
    firsts = column_first_rows(Bt, row_map=inv_perm)
    if firsts.size == 0:
        return 1.0
    return float(np.mean((n - firsts) / n))


def schur_complement(
    factor: CholeskyFactor,
    B: sp.spmatrix,
    exploit_rhs_sparsity: bool = True,
) -> np.ndarray:
    """Assemble ``S = B̃ K_reg⁻¹ B̃ᵀ`` explicitly on the CPU.

    Parameters
    ----------
    factor:
        Cholesky factorization of the regularized stiffness matrix
        (``P K_reg Pᵀ = L Lᵀ``).
    B:
        The subdomain gluing matrix ``B̃`` of shape ``(n_dual, ndofs)``.
    exploit_rhs_sparsity:
        Skip the leading zero rows of every right-hand-side column during the
        forward solve (the augmented-incomplete-factorization behaviour).
        Disabling it gives the plain TRSM path (the CHOLMOD-based explicit
        CPU approach) — the numerical result is identical.

    Returns
    -------
    numpy.ndarray
        The dense symmetric matrix ``S`` of shape ``(n_dual, n_dual)``.
    """
    s = factor.symbolic
    Bc = sp.csr_matrix(B)
    n_dual = Bc.shape[0]
    inv_perm = np.empty(s.n, dtype=np.int64)
    inv_perm[s.perm] = np.arange(s.n, dtype=np.int64)
    rows = inv_perm[Bc.indices]  # permuted row of every nonzero of B̃ᵀ
    cols = np.repeat(np.arange(n_dual, dtype=np.int64), np.diff(Bc.indptr))

    # W = P B̃ᵀ is scattered straight into the buffer the solve runs in, its
    # columns already sorted by first nonzero row when that sparsity is
    # exploited (the solve activates a growing column prefix).
    rank = sorted_starts = None
    if exploit_rhs_sparsity and n_dual:
        starts = np.full(n_dual, s.n, dtype=np.int64)
        starts[np.diff(Bc.indptr) > 0] = column_first_rows(Bc.T, row_map=inv_perm)
        order = np.argsort(starts, kind="stable")
        sorted_starts = starts[order]
        rank = np.empty(n_dual, dtype=np.int64)
        rank[order] = np.arange(n_dual, dtype=np.int64)
        cols = rank[cols]
    W = np.zeros((s.n, n_dual))
    np.add.at(W, (rows, cols), Bc.data)
    solve_lower_inplace(factor, W, sorted_starts=sorted_starts)
    if rank is not None:
        # Back to B̃'s column order before the product: WᵀW summed in another
        # column order differs in the last bit, and the heat 3D iteration
        # counts sit on exactly that edge.
        W = np.take(W, rank, axis=1)
    return W.T @ W
