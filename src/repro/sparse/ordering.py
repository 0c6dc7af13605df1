"""Fill-reducing orderings for sparse Cholesky.

The paper's CPU libraries use METIS nested dissection; offline we provide
two orderings:

* ``NATURAL`` — identity permutation (useful for tests and as a baseline),
* ``RCM`` — reverse Cuthill-McKee (bandwidth reduction, SciPy's csgraph),
  the ordering of every factor the package computes.

Both operate on the symmetric nonzero pattern only.  Any other permutation
(the tests' minimum-degree oracle, say) goes straight to
:func:`repro.sparse.symbolic.symbolic_cholesky` as ``perm=``.
"""

from __future__ import annotations

import enum

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

__all__ = ["OrderingMethod", "compute_ordering"]


class OrderingMethod(enum.Enum):
    """Supported fill-reducing orderings."""

    NATURAL = "natural"
    RCM = "rcm"


def compute_ordering(
    pattern: sp.spmatrix, method: OrderingMethod | str = OrderingMethod.RCM
) -> np.ndarray:
    """Compute a fill-reducing permutation for a symmetric pattern.

    Parameters
    ----------
    pattern:
        Sparse matrix whose symmetric nonzero pattern is analysed (values are
        ignored).
    method:
        One of :class:`OrderingMethod` (or its string value).

    Returns
    -------
    numpy.ndarray
        Permutation ``perm`` such that the matrix should be reordered as
        ``A[perm][:, perm]`` prior to factorization.
    """
    if isinstance(method, str):
        method = OrderingMethod(method)
    n = pattern.shape[0]
    if pattern.shape[0] != pattern.shape[1]:
        raise ValueError("pattern must be square")
    if method is OrderingMethod.NATURAL:
        return np.arange(n, dtype=np.int64)
    # Ones on the stored pattern: a stored zero is structure like any other
    # entry, and ``A + Aᵀ`` on the values would drop it.
    csr = sp.csr_matrix(pattern)
    csr = sp.csr_matrix((np.ones(csr.nnz), csr.indices, csr.indptr), shape=csr.shape)
    csr = (csr + csr.T).tocsr()
    return np.asarray(reverse_cuthill_mckee(csr, symmetric_mode=True), dtype=np.int64)
