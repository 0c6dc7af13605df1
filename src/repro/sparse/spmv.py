"""Sparse matrix-vector products with the CSR kernel bound once per matrix.

``A @ x`` on a ``scipy.sparse`` CSR matrix ends in one call of the compiled
``csr_matvec`` (``csr_matvecs`` for an ``(n, k)`` block), but reaches it
through ~3-4 µs of Python type dispatch per call.  The PCPG loop applies the
projector's ``G`` / ``Gᵀ``, the assembled preconditioner and the gluing
``B̃`` / ``B̃ᵀ`` every iteration, each a kernel of about 2 µs, so the
dispatch costs more than the product.  :class:`CsrProduct` checks the
matrix once and calls the kernel directly on every product.

The kernels are private scipy (``scipy.sparse._sparsetools``): the ones
``_cs_matrix._matmul_vector`` / ``_matmul_multivector`` call, with the same
arguments and the same zero-filled output, so a bound product is bitwise
``A @ x`` (``tests/sparse/test_spmv.py`` holds it to that on every matrix
routed through it).  This is the idiom the projector uses for ``dpotrs``:
the routine the public API ends in, without its per-call checks.  Any input
the fast path does not cover (another dtype, a wrong shape, a non-array)
falls back to ``A @ x`` itself, so errors are scipy's.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec, csr_matvecs

__all__ = ["CsrProduct"]

_F64 = np.dtype(np.float64)


class CsrProduct:
    """``x ↦ A @ x`` for one fp64 CSR matrix, without per-call dispatch.

    ``A`` is held by reference (:attr:`matrix`): an in-place change of its
    values shows in the next product, a new matrix needs a new binding.
    """

    __slots__ = ("matrix", "_m", "_n", "_indptr", "_indices", "_data")

    def __init__(self, A: sp.spmatrix) -> None:
        if getattr(A, "format", None) != "csr" or A.dtype != np.float64:
            raise TypeError(f"CsrProduct binds an fp64 CSR matrix, got {A!r}")
        #: The bound matrix.
        self.matrix = A
        self._m, self._n = A.shape
        self._indptr, self._indices, self._data = A.indptr, A.indices, A.data

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` for a vector ``x`` or an ``(n, k)`` block, bitwise."""
        if x.__class__ is np.ndarray and x.dtype == _F64:
            m, n = self._m, self._n
            shape = x.shape
            if shape == (n,):
                out = np.zeros(m)
                csr_matvec(m, n, self._indptr, self._indices, self._data, x, out)
                return out
            # An (n, 1) column takes scipy's single-vector route: fall back.
            if len(shape) == 2 and shape[0] == n and shape[1] > 1:
                k = shape[1]
                out = np.zeros((m, k))
                csr_matvecs(
                    m, n, k, self._indptr, self._indices, self._data, x.ravel(), out.ravel()
                )
                return out
        return self.matrix @ x
