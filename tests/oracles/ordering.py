"""Test oracle: a plain minimum-degree ordering.

No caller in ``repro`` orders by minimum degree (every factor is RCM-ordered),
but its permutations are a useful second family for the symbolic analysis:
they produce bushy elimination trees where RCM produces chains.  Tests pass
the permutation through ``symbolic_cholesky(A, perm=minimum_degree(A))``
(:func:`analysis_kwargs` picks it by the name ``"amd"``).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["ORDERINGS", "analysis_kwargs", "minimum_degree"]

#: The package's orderings by name, plus ``"amd"`` for :func:`minimum_degree`.
ORDERINGS = ("natural", "rcm", "amd")


def analysis_kwargs(A: sp.spmatrix, ordering: str) -> dict:
    """``symbolic_cholesky`` keyword arguments that order ``A`` by ``ordering``."""
    if ordering == "amd":
        return {"perm": minimum_degree(A)}
    return {"ordering": ordering}


def minimum_degree(pattern: sp.spmatrix) -> np.ndarray:
    """A simple (non-approximate) minimum-degree ordering of a symmetric pattern.

    Values are ignored: a stored zero is structure like any other entry.
    Quadratic in the worst case; meant for the small matrices of the tests.
    """
    coo = sp.coo_matrix(pattern)
    n = coo.shape[0]
    adjacency: list[set[int]] = [set() for _ in range(n)]
    for i, j in zip(coo.row.tolist(), coo.col.tolist()):
        if i != j:
            adjacency[i].add(j)
            adjacency[j].add(i)
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
