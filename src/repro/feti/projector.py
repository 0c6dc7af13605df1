"""The natural coarse-grid projector ``P = I − G (GᵀG)⁻¹ Gᵀ``.

``G = B R`` couples the subdomain kernel modes through the gluing
constraints (equation (8) of the paper); its Gram matrix ``GᵀG`` is the
*coarse problem* — one row/column per kernel mode.  It is factorized once,
by one dense Cholesky, and an application of ``P`` is two sparse products
(``Gᵀ x``, ``G u``) around one Cholesky solve.  The projector is serial on
every execution backend: the products are a few microseconds of sparse
kernel, far below the cost of dispatching them.

``apply_block`` projects a whole block of PCPG columns in two stacked
sparse products (per-column coarse solves keep it bitwise equal to
column-by-column application).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.feti.problem import FetiProblem

__all__ = ["Projector", "build_projector"]


def build_projector(problem: "FetiProblem") -> "Projector":
    """The coarse projector of one problem."""
    return Projector(problem.assemble_G())


class Projector:
    """Projector on the natural coarse space, ``P = I − G (GᵀG)⁻¹ Gᵀ``.

    Parameters
    ----------
    G:
        The ``B R`` constraint-kernel coupling matrix (any sparse format;
        cached in CSR, with ``Gᵀ`` cached in CSR too so no apply ever pays
        a format conversion).
    """

    def __init__(self, G: sp.spmatrix) -> None:
        self.G = sp.csr_matrix(G)
        self.Gt = sp.csr_matrix(self.G.T)
        self.n_lambda, self.n_kernel = self.G.shape
        if self.n_kernel == 0:
            raise ValueError("G has no columns; the coarse problem is empty")

        gtg = np.asarray((self.Gt @ self.G).todense(), dtype=float)
        start = time.perf_counter()
        # G must have full column rank for (GᵀG)⁻¹ to exist — this is the
        # solvability condition of the coarse problem.
        self._cho = sla.cho_factor(gtg)
        #: Wall seconds spent factorizing the coarse problem.
        self.factor_seconds = time.perf_counter() - start
        #: Cumulative wall seconds in applies / coarse solves.
        self.seconds = 0.0
        #: Projector applications (block applies count once per column).
        self.applies = 0
        #: Standalone coarse solves (``initial_lambda`` / ``alpha``).
        self.solves = 0

    # ------------------------------------------------------------------ #
    def coarse_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``(Gᵀ G) x = rhs``."""
        start = time.perf_counter()
        out = sla.cho_solve(self._cho, rhs)
        self.seconds += time.perf_counter() - start
        self.solves += 1
        return out

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Apply ``P x = x − G (GᵀG)⁻¹ Gᵀ x``."""
        start = time.perf_counter()
        u = sla.cho_solve(self._cho, self.Gt @ x)
        out = x - self.G @ u
        self.seconds += time.perf_counter() - start
        self.applies += 1
        return out

    __call__ = apply

    def apply_block(self, X: np.ndarray) -> np.ndarray:
        """Apply ``P`` to every column of an ``(n_lambda, k)`` block.

        The two sparse products run stacked (``csr_matvecs`` accumulates
        each output row over the same nonzeros in the same order as the
        single-column kernel, so the stacked products are bitwise equal to
        per-column matvecs); the small coarse solves stay per column, which
        keeps the whole block application bitwise equal to column-by-column
        :meth:`apply`.
        """
        start = time.perf_counter()
        Z = self.Gt @ np.ascontiguousarray(X)
        U = np.column_stack(
            [
                sla.cho_solve(self._cho, np.ascontiguousarray(Z[:, j]))
                for j in range(Z.shape[1])
            ]
        )
        out = X - self.G @ U
        self.seconds += time.perf_counter() - start
        self.applies += X.shape[1]
        return out

    def initial_lambda(self, e: np.ndarray) -> np.ndarray:
        """Feasible initial iterate ``λ₀ = G (GᵀG)⁻¹ e`` (``Gᵀ λ₀ = e``)."""
        start = time.perf_counter()
        out = self.G @ sla.cho_solve(self._cho, e)
        self.seconds += time.perf_counter() - start
        self.solves += 1
        return out

    def alpha(self, d_minus_F_lambda: np.ndarray) -> np.ndarray:
        """Kernel amplitudes ``α = −(GᵀG)⁻¹ Gᵀ (d − F λ)`` (equation (9))."""
        start = time.perf_counter()
        out = -sla.cho_solve(self._cho, self.Gt @ d_minus_F_lambda)
        self.seconds += time.perf_counter() - start
        self.solves += 1
        return out

    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, float | int]:
        """Cumulative coarse-problem counters of this projector."""
        return {
            "applies": self.applies,
            "solves": self.solves,
            "seconds": self.seconds,
            "factor_seconds": self.factor_seconds,
        }
