"""Triangular solves on the Cholesky factor's band.

The fill-reducing ordering of the analysis (RCM by default) is a *banded*
ordering (George and Liu), so ``L`` lies inside a lower band of half-width
``kd = max(row − col)`` (:meth:`~repro.sparse.symbolic.SymbolicFactor.band_index`).
A factor's band is a C-order ``(n, kd + 1)`` array whose row ``c`` holds
column ``c`` from its diagonal down; a stack of ``k`` same-pattern factors is
one ``(k, n, kd + 1)`` array (:func:`repro.sparse.numeric.stacked_cholesky`).
Read as ``(k·n, kd + 1)`` and transposed, that stack is, without a copy, the
F-contiguous LAPACK lower band of the block-diagonal matrix of its members:
the entries that would couple two members are exact zeros.  So
:func:`solve_banded` solves every member of a stack with one BLAS ``dtbsv``
per direction, however many members there are.  A band stored in fp32 is
up-cast on use, so the arithmetic is fp64 under every precision policy.

This is the package's only solve kernel.  The Schur assembly
(:mod:`repro.sparse.schur`) sweeps supernode panels instead, gathered from
the same band.  The simulated GPU holds byte sizes, not factors, so the GPU
approaches solve here too.  The scalar per-column solves are the test oracle
(``tests/oracles/sparse.py``).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dtbsv

__all__ = ["solve_banded", "sweep_banded"]


def _lower_band(band: np.ndarray) -> np.ndarray:
    """``(k, n, kd + 1)`` bands as the fp64 ``(kd + 1, k·n)`` block-diagonal band."""
    k, n, width = band.shape
    return band.reshape(k * n, width).T.astype(np.float64, copy=False)


def solve_banded(perm: np.ndarray, band: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``Aᵢ xᵢ = bᵢ`` for ``k`` factors ``Lᵢ Lᵢᵀ`` of ``P Aᵢ Pᵀ``.

    Parameters
    ----------
    perm:
        ``(k·n,)`` stacked fill-reducing permutation: member ``i``'s
        entries are the shared permutation plus ``i·n`` (a stack of one's
        is the permutation itself).
    band:
        ``(k, n, kd + 1)`` bands of the factors.
    rhs:
        ``(k, n)`` right-hand sides in the original ordering.

    One gather through the permutation, :func:`sweep_banded`, one scatter
    back.
    """
    k, n = band.shape[:2]
    y = sweep_banded(band, np.asarray(rhs, dtype=float).reshape(-1)[perm])
    x = np.empty(k * n)
    x[perm] = y
    return x.reshape(k, n)


def sweep_banded(band: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``(L Lᵀ)⁻¹ y`` for ``(k·n,)`` right-hand sides in the factors' ordering.

    ``dtbsv`` with ``L`` and with ``Lᵀ`` over the block-diagonal band of the
    ``(k, n, kd + 1)`` stack, overwriting ``y`` (a fresh fp64 array).  The
    members do not interact: a member's solution is bitwise the same
    whatever the other members' right-hand sides are.
    """
    if y.size:
        width = band.shape[-1]
        ab = _lower_band(band)
        y = dtbsv(width - 1, ab, y, lower=1, overwrite_x=1)
        y = dtbsv(width - 1, ab, y, lower=1, trans=1, overwrite_x=1)
    return y
