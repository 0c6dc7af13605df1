"""Test oracle: the pruned Schur assembly one subdomain at a time.

What the explicit CPU approaches ran before the interface-class kernel: one
``F̃ᵢ = B̃ᵢ Kᵢ⁻¹ B̃ᵢᵀ = Wᵀ W`` per subdomain, with ``W = L⁻¹ P B̃ᵢᵀ`` built
from ``B̃ᵢ`` on every call, swept by the single-factor panel kernel
(:func:`solve_lower_inplace`, which reads each supernode's panel straight
out of the factor's band and inverts its diagonal block on the spot) and
multiplied out in 2-D blocks.
:func:`repro.sparse.schur.stacked_schur_complement` must give **bitwise**
this result for every member of every class, whatever the class size,
because a stacked ``np.matmul`` runs the same BLAS call per member and the
diagonal blocks are inverted by the same ``dtrtri`` call.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dtrtri

from repro.sparse.numeric import CholeskyFactor
from repro.sparse.schur import SCHUR_CHUNK, column_first_rows

__all__ = ["schur_complement", "solve_lower_inplace"]

_MIRROR_TILE = 32
_STRICT_UPPER = np.triu(np.ones((_MIRROR_TILE, _MIRROR_TILE), dtype=bool), 1)


def schur_complement(
    factor: CholeskyFactor, B: sp.spmatrix, exploit_rhs_sparsity: bool = True
) -> np.ndarray:
    """``S = B̃ K_reg⁻¹ B̃ᵀ`` of one subdomain, columns pruned at their first row.

    ``exploit_rhs_sparsity=False`` starts every column at row 0 (a plain
    TRSM, the sweep without pruning).
    """
    s = factor.symbolic
    Bc = sp.csr_matrix(B)
    n_dual = Bc.shape[0]
    inv_perm = np.empty(s.n, dtype=np.int64)
    inv_perm[s.perm] = np.arange(s.n, dtype=np.int64)
    rows = inv_perm[Bc.indices]

    starts = np.zeros(n_dual, dtype=np.int64)
    if exploit_rhs_sparsity:
        starts[:] = s.n
        starts[np.diff(Bc.indptr) > 0] = column_first_rows(Bc.T, row_map=inv_perm)
    order = np.argsort(starts, kind="stable")
    starts = starts[order]
    rank = np.empty(n_dual, dtype=np.int64)
    rank[order] = np.arange(n_dual, dtype=np.int64)
    cols = rank[np.repeat(np.arange(n_dual, dtype=np.int64), np.diff(Bc.indptr))]

    W = np.zeros((s.n, n_dual))
    np.add.at(W, (rows, cols), Bc.data)
    solve_lower_inplace(factor, W, sorted_starts=starts)
    S = _pruned_gram(W, starts)
    del W
    return np.take(np.take(S, rank, axis=0), rank, axis=1, out=S, mode="clip")


def _panel(factor: CholeskyFactor, j0: int, j1: int, below: np.ndarray) -> np.ndarray:
    """Supernode ``j0:j1``'s dense panel, read entry by entry out of the band."""
    band, kd = factor.band, factor.symbolic.kd
    rows = np.concatenate((np.arange(j0, j1), below))
    cols = np.arange(j0, j1)
    offsets = rows[:, None] - cols[None, :]
    inside = (offsets >= 0) & (offsets <= kd)
    panel = np.zeros(offsets.shape)
    panel[inside] = band[np.broadcast_to(cols, offsets.shape)[inside], offsets[inside]]
    return panel


def solve_lower_inplace(
    factor: CholeskyFactor, Y: np.ndarray, sorted_starts: np.ndarray | None = None
) -> None:
    """Overwrite the ``(n, nrhs)`` block ``Y`` with ``L⁻¹ Y`` over the panels.

    Each diagonal-block step is a product with the inverse of the panel's
    diagonal block.  With ``sorted_starts`` (ascending first-nonzero rows of
    the columns of ``Y``) only the already-activated column prefix joins each
    panel, which is how the per-column right-hand-side sparsity is exploited.
    """
    part = factor.symbolic.supernodes
    for s in range(part.n_supernodes):
        j0, j1 = int(part.snode_ptr[s]), int(part.snode_ptr[s + 1])
        w = j1 - j0
        a = Y.shape[1]
        if sorted_starts is not None:
            a = int(np.searchsorted(sorted_starts, j1 - 1, side="right"))
            if a == 0:
                continue
        pv = _panel(factor, j0, j1, part.below_rows[s])
        yj = np.ascontiguousarray(dtrtri(pv[:w], lower=1)[0]) @ Y[j0:j1, :a]
        Y[j0:j1, :a] = yj
        if pv.shape[0] > w:
            Y[part.below_rows[s], :a] -= pv[w:] @ yj


def _pruned_gram(W: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """``WᵀW`` in ``SCHUR_CHUNK``-column blocks, each from its first nonzero row."""
    n_dual = W.shape[1]
    S = np.empty((n_dual, n_dual))
    for c0 in range(0, n_dual, SCHUR_CHUNK):
        c1 = min(c0 + SCHUR_CHUNK, n_dual)
        r = int(starts[c0])
        np.matmul(W[r:, c0:c1].T, W[r:, :c1], out=S[c0:c1, :c1])
        for t0 in range(c0, c1, _MIRROR_TILE):
            t1 = min(t0 + _MIRROR_TILE, c1)
            S[:t0, t0:t1] = S[t0:t1, :t0].T
            tile = S[t0:t1, t0:t1]
            np.copyto(tile, tile.T, where=_STRICT_UPPER[: t1 - t0, : t1 - t0])
    return S
