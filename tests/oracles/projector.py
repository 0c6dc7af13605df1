"""Test oracle: the coarse problem solved by its dense Cholesky factor.

``DpotrsCoarse(G)`` is the coarse path :class:`~repro.feti.projector.Projector`
ran before every coarse solve became one GEMV with ``(GᵀG)⁻¹``: ``GᵀG``
densified and factored once by ``scipy.linalg.cho_factor``, then one LAPACK
``dpotrs`` (two triangular solves on the stored factor) per coarse solve,
one multi-RHS ``dpotrs`` per block.  It shares no code with the projector
beyond ``G`` itself, so it is the reference its ``apply``, ``apply_block``,
``initial_lambda`` and ``alpha`` are held to.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.lapack import dpotrs

__all__ = ["DpotrsCoarse"]


class DpotrsCoarse:
    """``P = I − G (GᵀG)⁻¹ Gᵀ`` with ``(GᵀG)⁻¹`` applied by ``dpotrs``."""

    def __init__(self, G: sp.spmatrix) -> None:
        self.G = sp.csr_matrix(G, dtype=float)
        self._cho = sla.cho_factor((self.G.T @ self.G).toarray())

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """``(GᵀG)⁻¹ rhs`` for one column or an ``(n_kernel, k)`` block."""
        out, info = dpotrs(self._cho[0], rhs, lower=self._cho[1])
        assert info == 0, info
        return out

    def apply(self, x: np.ndarray) -> np.ndarray:
        return x - self.G @ self.solve(self.G.T @ x)

    apply_block = apply

    def initial_lambda(self, e: np.ndarray) -> np.ndarray:
        return self.G @ self.solve(e)

    def alpha(self, residual: np.ndarray) -> np.ndarray:
        return -self.solve(self.G.T @ residual)
