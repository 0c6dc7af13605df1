"""Test oracle: the concatenated-scatter path of the explicit dense apply.

``scatter_apply(dense, λ)`` is how :class:`~repro.feti.operators.batch.
BatchedDenseApply` applied its blocks before the apply went straight from
the GEMM's padded output into ``λ``-space: gather ``λ`` into a concatenated
local vector, pad it into a zeroed ``(n_packed, max, 1)`` buffer, run the
batched GEMV, unpad the result back to concatenated order, run one
``dsymv`` per large block on its rows, then scatter the concatenated result
into a zero ``q`` with one ``np.bincount``.  It reads only the installed
blocks and the index map, so the one-buffer apply must equal it bitwise
(same products, same per-entry summation order).
``scatter_apply_multi`` is the stacked ``(n_λ, k)`` analogue (one GEMM per
large block, one ``bincount`` per column); ``local_apply[_multi]`` stop at
the concatenated local result.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dsymv

__all__ = ["local_apply", "local_apply_multi", "scatter_apply", "scatter_apply_multi"]


def _padded(dense, p: np.ndarray) -> np.ndarray:
    """The packed blocks' entries of ``p`` in a zeroed ``(n_packed, max, k)`` buffer."""
    index_map = dense.map
    m = dense.blocks.shape[1]
    padded = np.zeros((dense.n_packed, m) + p.shape[1:])
    for item in range(dense.n_packed):
        rows = index_map.slice_of(item)
        padded[item, : rows.stop - rows.start] = p[rows]
    return padded


def _unpadded(dense, Q: np.ndarray, into: np.ndarray) -> None:
    """Copy the packed blocks' rows of ``Q`` back to concatenated order."""
    index_map = dense.map
    for item in range(dense.n_packed):
        rows = index_map.slice_of(item)
        into[rows] = Q[item, : rows.stop - rows.start]


def _large(dense):
    for item in range(dense.n_packed, dense.map.n_items):
        yield dense.map.slice_of(item), dense.block(item).astype(np.float64)


def local_apply(dense, p: np.ndarray) -> np.ndarray:
    """``F̃ᵢ pᵢ`` of every block, concatenated (``p`` concatenated too)."""
    q_local = np.empty_like(p)
    if dense.n_packed:
        Q = np.matmul(dense.blocks, _padded(dense, p)[:, :, None])
        _unpadded(dense, Q[:, :, 0], q_local)
    for rows, block in _large(dense):
        q_local[rows] = dsymv(1.0, block.T, p[rows])
    return q_local


def local_apply_multi(dense, P: np.ndarray) -> np.ndarray:
    """The stacked ``(total, k)`` analogue of :func:`local_apply`."""
    Q_local = np.empty_like(P)
    if dense.n_packed:
        _unpadded(dense, np.matmul(dense.blocks, _padded(dense, P)), Q_local)
    for rows, block in _large(dense):
        Q_local[rows] = np.matmul(block, P[rows])
    return Q_local


def scatter_apply(dense, lam: np.ndarray) -> np.ndarray:
    """``q = Σᵢ B̃ᵢᵀ F̃ᵢ B̃ᵢ λ`` through a concatenated local result."""
    flat_ids = dense.map.flat_ids
    q = np.zeros_like(lam)
    q += np.bincount(flat_ids, weights=local_apply(dense, lam.take(flat_ids)), minlength=q.shape[0])
    return q


def scatter_apply_multi(dense, lam_block: np.ndarray) -> np.ndarray:
    """The stacked ``(n_λ, k)`` analogue of :func:`scatter_apply`."""
    flat_ids = dense.map.flat_ids
    Q_local = local_apply_multi(dense, lam_block.take(flat_ids, axis=0))
    Q = np.zeros_like(lam_block)
    for j in range(Q.shape[1]):
        Q[:, j] += np.bincount(flat_ids, weights=Q_local[:, j], minlength=Q.shape[0])
    return Q
