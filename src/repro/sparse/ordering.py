"""Fill-reducing orderings for sparse Cholesky.

The paper's CPU libraries use METIS nested dissection; offline we provide
three orderings with the same role:

* ``NATURAL`` — identity permutation (useful for tests and as a baseline),
* ``RCM`` — reverse Cuthill-McKee (bandwidth reduction, SciPy's csgraph),
* ``AMD`` — a straightforward minimum-degree elimination ordering.

All orderings operate on the symmetric nonzero pattern only.
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
    AMD = "amd"


def _minimum_degree(pattern: sp.csr_matrix) -> np.ndarray:
    """A simple (non-approximate) minimum-degree ordering.

    Quadratic in the worst case; intended for the moderate subdomain sizes
    used in tests and benchmarks, not for production-scale matrices.
    """
    n = pattern.shape[0]
    adjacency: list[set[int]] = [set() for _ in range(n)]
    coo = pattern.tocoo()
    for i, j in zip(coo.row, coo.col):
        if i != j:
            adjacency[int(i)].add(int(j))
            adjacency[int(j)].add(int(i))
    eliminated = np.zeros(n, dtype=bool)
    perm = np.empty(n, dtype=np.int64)
    degrees = np.array([len(a) for a in adjacency], dtype=np.int64)
    for k in range(n):
        # Pick the lowest-degree non-eliminated vertex (ties: lowest index).
        masked = np.where(eliminated, np.iinfo(np.int64).max, degrees)
        v = int(np.argmin(masked))
        perm[k] = v
        eliminated[v] = True
        neighbours = [u for u in adjacency[v] if not eliminated[u]]
        # Eliminating v connects its remaining neighbours into a clique.
        for u in neighbours:
            adjacency[u].discard(v)
            adjacency[u].update(w for w in neighbours if w != u)
            degrees[u] = len(adjacency[u])
        adjacency[v] = set()
    return perm


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
    if method is OrderingMethod.RCM:
        return np.asarray(reverse_cuthill_mckee(csr, symmetric_mode=True), dtype=np.int64)
    return _minimum_degree(csr)
