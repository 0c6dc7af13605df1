"""The natural coarse-grid projector ``P = I − G (GᵀG)⁻¹ Gᵀ``.

``G = B R`` couples the subdomain kernel modes through the gluing
constraints (equation (8) of the paper); its Gram matrix ``GᵀG`` is the
*coarse problem* — one row/column per kernel mode.  It is factorized once,
by one dense Cholesky, which is then inverted (LAPACK ``dpotri``) and kept
as the exactly symmetric ``H = (GᵀG)⁻¹``.  Every coarse solve is one GEMV
``H @ v``, so an application of ``P`` is two sparse products (``Gᵀ x``,
``G u``) around one GEMV.  ``H`` holds the ``N²`` entries of the dense
factor it replaces and the GEMV streams them once, as the two triangular
solves of ``dpotrs`` did — without the LAPACK call's fixed cost, which at
a few dozen subdomains was a third of a projection.  The products skip
``A @ x``'s dispatch the same way: each runs the CSR kernel bound once
(:class:`~repro.sparse.spmv.CsrProduct`).  The projector is serial on every
execution backend: the products are a few microseconds of sparse kernel,
far below the cost of dispatching them.

``apply_block`` projects a whole block of PCPG columns in two stacked
sparse products around one GEMV per column (bitwise equal to
column-by-column application).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.lapack import dpotri

from repro.sparse.spmv import CsrProduct

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
        self.G = sp.csr_matrix(G, dtype=float)
        self.Gt = sp.csr_matrix(self.G.T)
        #: ``u ↦ G u`` and ``x ↦ Gᵀ x``, the kernels bound once.
        self.G_product = CsrProduct(self.G)
        self.Gt_product = CsrProduct(self.Gt)
        self.n_lambda, self.n_kernel = self.G.shape
        if self.n_kernel == 0:
            raise ValueError("G has no columns; the coarse problem is empty")

        gtg = np.asarray((self.Gt @ self.G).todense(), dtype=float)
        start = time.perf_counter()
        # G must have full column rank for (GᵀG)⁻¹ to exist — this is the
        # solvability condition of the coarse problem.
        upper, _ = sla.cho_factor(gtg)
        inverse, info = dpotri(upper)
        if info != 0:
            raise ValueError(f"dpotri failed on the coarse problem (info={info})")
        #: ``(GᵀG)⁻¹``, its upper triangle mirrored: every coarse solve is
        #: one GEMV with it.
        self.H = np.triu(inverse) + np.triu(inverse, 1).T
        #: Wall seconds spent factorizing and inverting the coarse problem.
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
        out = self.H @ rhs
        self.seconds += time.perf_counter() - start
        self.solves += 1
        return out

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Apply ``P x = x − G (GᵀG)⁻¹ Gᵀ x``."""
        start = time.perf_counter()
        out = x - self.G_product(self.H @ self.Gt_product(x))
        self.seconds += time.perf_counter() - start
        self.applies += 1
        return out

    __call__ = apply

    def apply_block(self, X: np.ndarray) -> np.ndarray:
        """Apply ``P`` to every column of an ``(n_lambda, k)`` block.

        The two sparse products run stacked (``csr_matvecs`` accumulates
        each output row over the same nonzeros in the same order as the
        single-column kernel, so the stacked products are bitwise equal to
        per-column matvecs); the coarse solve is the GEMV of :meth:`apply`
        on each contiguous column, which keeps the whole block application
        bitwise equal to column-by-column :meth:`apply`.
        """
        start = time.perf_counter()
        U = self.Gt_product(np.ascontiguousarray(X)).T.copy()
        out = X - self.G_product(np.column_stack([self.H @ u for u in U]))
        self.seconds += time.perf_counter() - start
        self.applies += X.shape[1]
        return out

    def initial_lambda(self, e: np.ndarray) -> np.ndarray:
        """Feasible initial iterate ``λ₀ = G (GᵀG)⁻¹ e`` (``Gᵀ λ₀ = e``)."""
        start = time.perf_counter()
        out = self.G_product(self.H @ e)
        self.seconds += time.perf_counter() - start
        self.solves += 1
        return out

    def alpha(self, d_minus_F_lambda: np.ndarray) -> np.ndarray:
        """Kernel amplitudes ``α = −(GᵀG)⁻¹ Gᵀ (d − F λ)`` (equation (9))."""
        start = time.perf_counter()
        out = -(self.H @ self.Gt_product(d_minus_F_lambda))
        self.seconds += time.perf_counter() - start
        self.solves += 1
        return out
