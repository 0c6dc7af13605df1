"""Explicitly assembled dual preconditioners for the PCPG iteration.

The paper's idea for ``F`` — assemble once what every iteration applies —
used for the preconditioner:

``M = Σᵢ Rᵢᵀ (B̃ᵢ,s Opᵢ B̃ᵢ,sᵀ) Rᵢ = B_s · blockdiag(Opᵢ) · B_sᵀ``

is one ``n_λ × n_λ`` CSR matrix built by two global sparse products, so
``apply`` is one SpMV and ``apply_block`` one SpMM.  ``B_s = B D⁻¹`` is the
global gluing matrix scaled by the inverse DOF multiplicity; ``Opᵢ`` is the
stiffness ``Kᵢ`` (:class:`LumpedPreconditioner`) or its Schur complement
``Sᵢ`` on the constrained DOFs (:class:`DirichletPreconditioner`: a dense
block per subdomain, the ``Σ n_λᵢ²`` footprint the explicit ``F`` also pays).

Like ``F``, ``M`` has a numeric-refresh lifecycle: ``B_s`` is fixed by the
mesh; ``refresh()`` re-reads the stiffness *values* and reassembles ``M`` in
place.  :meth:`repro.feti.solver.FetiSolver.preprocess` calls it, so ``M``
follows ``K`` exactly when the factorization does.  The per-subdomain loop
this replaced is the test oracle ``tests/oracles/preconditioner.py``.
"""

from __future__ import annotations

import enum

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.feti.problem import FetiProblem

__all__ = [
    "PreconditionerKind",
    "IdentityPreconditioner",
    "LumpedPreconditioner",
    "DirichletPreconditioner",
]


class PreconditionerKind(enum.Enum):
    """Dual preconditioners selectable through the solver options."""

    NONE = "none"
    LUMPED = "lumped"
    DIRICHLET = "dirichlet"


class IdentityPreconditioner:
    """The do-nothing preconditioner (``M = I``)."""

    def __init__(self, problem: FetiProblem) -> None:
        self.problem = problem

    def refresh(self) -> None:
        """Nothing depends on the stiffness values."""

    def apply(self, w: np.ndarray) -> np.ndarray:
        """Return ``w`` unchanged."""
        return w

    def apply_block(self, W: np.ndarray) -> np.ndarray:
        """Return the block unchanged."""
        return W

    __call__ = apply


class _AssembledPreconditioner:
    """``M = B_s · blockdiag(Opᵢ) · B_sᵀ`` as one CSR matrix."""

    def __init__(self, problem: FetiProblem) -> None:
        self.problem = problem
        ndofs = [sub.ndofs for sub in problem.subdomains]
        #: First global primal index of every subdomain, then the total.
        self._offsets = np.concatenate([[0], np.cumsum(ndofs)])
        scale = 1.0 / np.concatenate([sub.dof_multiplicity for sub in problem.subdomains])
        self._scaled_B = (problem.gluing.global_B(ndofs) @ sp.diags(scale)).tocsr()
        self._scaled_Bt = self._scaled_B.T.tocsr()
        self.refresh()

    def _operator(self) -> sp.csr_matrix:
        """``blockdiag(Opᵢ)`` at the current stiffness values."""
        raise NotImplementedError

    def refresh(self) -> None:
        """Reassemble ``M`` from the current stiffness values, in place."""
        #: The assembled preconditioner (``n_λ × n_λ`` CSR).
        self.matrix = self._scaled_B @ self._operator() @ self._scaled_Bt

    def apply(self, w: np.ndarray) -> np.ndarray:
        """Apply ``M w`` (one SpMV)."""
        return self.matrix @ w

    def apply_block(self, W: np.ndarray) -> np.ndarray:
        """Apply ``M`` to every column (one SpMM, bitwise equal to per-column)."""
        return self.matrix @ W

    __call__ = apply


class LumpedPreconditioner(_AssembledPreconditioner):
    """The lumped preconditioner ``M = Σᵢ B̃ᵢ Kᵢ B̃ᵢᵀ`` (with scaling)."""

    def _operator(self) -> sp.csr_matrix:
        # CSR block diagonal by concatenation (``sp.block_diag`` loops in
        # Python over every block and is several times slower).
        blocks = [sub.K.tocsr() for sub in self.problem.subdomains]
        nnz_before = np.cumsum([0] + [b.nnz for b in blocks])
        indptr = [b.indptr[1:] + start for b, start in zip(blocks, nnz_before)]
        indices = [b.indices + start for b, start in zip(blocks, self._offsets)]
        data = np.concatenate([b.data for b in blocks])
        n = self._offsets[-1]
        return sp.csr_matrix(
            (data, np.concatenate(indices), np.concatenate([[0], *indptr])), shape=(n, n)
        )


class DirichletPreconditioner(_AssembledPreconditioner):
    """The Dirichlet preconditioner ``M = Σᵢ B̃ᵢ Sᵢ B̃ᵢᵀ``.

    ``Sᵢ`` is the Schur complement of ``Kᵢ`` on the subdomain's *constrained*
    DOFs (those touched by any constraint row): a dense block, affordable
    because a subdomain's interface is small compared to its interior.
    """

    def _operator(self) -> sp.csr_matrix:
        rows, cols, vals = [], [], []
        for sub, start in zip(self.problem.subdomains, self._offsets):
            boundary = np.unique(sub.B.indices)
            if boundary.size == 0:
                continue
            rows.append(np.repeat(boundary + start, boundary.size))
            cols.append(np.tile(boundary + start, boundary.size))
            vals.append(_interface_schur(sub.K.tocsc(), boundary).ravel())
        n = self._offsets[-1]
        return sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n),
        ).tocsr()


def _interface_schur(K: sp.csc_matrix, boundary: np.ndarray) -> np.ndarray:
    """Dense ``Kbb − Kbi Kii⁻¹ Kib`` (one factorization, one multi-RHS solve)."""
    interior = np.setdiff1d(np.arange(K.shape[0]), boundary)
    Kbb = K[np.ix_(boundary, boundary)].toarray()
    if interior.size == 0:
        return Kbb
    Kib = K[np.ix_(interior, boundary)].toarray()
    Kii = K[np.ix_(interior, interior)].tocsc()
    return Kbb - Kib.T @ spla.splu(Kii).solve(Kib)
