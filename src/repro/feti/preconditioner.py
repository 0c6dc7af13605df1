"""Explicitly assembled dual preconditioners for the PCPG iteration.

The paper's idea for ``F`` — assemble once what every iteration applies —
used for the preconditioner:

``M = Σᵢ Rᵢᵀ (B̃_D,ᵢ Opᵢ B̃_D,ᵢᵀ) Rᵢ = B_D · blockdiag(Opᵢ) · B_Dᵀ``

is one ``n_λ × n_λ`` CSR matrix built by two global sparse products, so
``apply`` is one SpMV and ``apply_block`` one SpMM, both through the CSR
kernel bound once per assembly (:class:`~repro.sparse.spmv.CsrProduct`).
``Opᵢ`` is the stiffness ``Kᵢ`` (:class:`LumpedPreconditioner`) or its Schur complement
``Sᵢ`` on the constrained DOFs (:class:`DirichletPreconditioner`: a dense
block per subdomain, the ``Σ n_λᵢ²`` footprint the explicit ``F`` also pays).

``B_D = (B D⁻¹ Bᵀ)⁻¹ B D⁻¹`` is the scaled gluing matrix for
**non-redundant** multipliers (Klawonn & Widlund 2001; Rixen & Farhat 1999),
``D`` the diagonal of DOF multiplicities.  The plain ``B D⁻¹`` is a valid
scaling only when every pair of copies of a DOF has its own multiplier; the
gluing of :mod:`repro.decomposition.gluing` chains the ``m`` copies of a
cross-point DOF with ``m − 1`` rows and gives every Dirichlet DOF instance
its own row, so ``B D⁻¹ Bᵀ ≠ I``.  It is block diagonal — one
``(m−1) × (m−1)`` tridiagonal block per shared node-component, a ``1 × 1``
block ``1/μ`` per Dirichlet row — and inverting it block-wise restores
``B_D Bᵀ = I``: the jump operator ``B_Dᵀ B`` becomes a projection, and a
Dirichlet row of ``B_D`` is the row of ``B`` itself (coefficient 1, as
Total-FETI needs, not ``1/μ``).  ``B_D`` has the column support of ``B``.

Like ``F``, ``M`` has a numeric-refresh lifecycle: ``B_D`` is fixed by the
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
from scipy.sparse.csgraph import connected_components

from repro.feti.problem import FetiProblem
from repro.sparse.spmv import CsrProduct

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


def _block_diagonal_inverse(A: sp.spmatrix) -> sp.csr_matrix:
    """Inverse of a sparse matrix that is block diagonal up to a permutation.

    The blocks are the connected components of ``A``'s graph; all blocks of
    one size are inverted by a single batched ``np.linalg.inv``, so the cost
    is vectorized over the blocks and nothing ``n × n`` is ever dense.
    """
    A = A.tocoo()
    n = A.shape[0]
    n_blocks, block_of = connected_components(A, directed=False)
    size = np.bincount(block_of, minlength=n_blocks)
    # Rows grouped by block, and every row's position inside its block.
    grouped = np.argsort(block_of, kind="stable")
    start = np.cumsum(size) - size
    position = np.empty(n, dtype=np.int64)
    position[grouped] = np.arange(n) - start[block_of[grouped]]

    entry_block = block_of[A.row]
    rows, cols, vals = [], [], []
    for s in np.unique(size):
        blocks = np.flatnonzero(size == s)
        pick = size[entry_block] == s
        dense = np.zeros((blocks.size, s, s))
        slot = np.searchsorted(blocks, entry_block[pick])
        dense[slot, position[A.row[pick]], position[A.col[pick]]] = A.data[pick]
        members = grouped[start[blocks][:, None] + np.arange(s)]
        rows.append(np.repeat(members, s, axis=1).ravel())
        cols.append(np.tile(members, (1, s)).ravel())
        vals.append(np.linalg.inv(dense).ravel())
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    ).tocsr()


def _nonredundant_scaled_gluing(problem: FetiProblem) -> sp.csr_matrix:
    """``B_D = (B D⁻¹ Bᵀ)⁻¹ B D⁻¹`` with ``D`` the DOF multiplicities (CSR)."""
    ndofs = [sub.ndofs for sub in problem.subdomains]
    B = problem.gluing.global_B(ndofs)
    multiplicity = np.concatenate([sub.dof_multiplicity for sub in problem.subdomains])
    B_Dinv = (B @ sp.diags(1.0 / multiplicity)).tocsr()
    return (_block_diagonal_inverse(B_Dinv @ B.T) @ B_Dinv).tocsr()


class _AssembledPreconditioner:
    """``M = B_D · blockdiag(Opᵢ) · B_Dᵀ`` as one CSR matrix."""

    def __init__(self, problem: FetiProblem) -> None:
        self.problem = problem
        #: First global primal index of every subdomain, then the total.
        self._offsets = np.concatenate([[0], np.cumsum([sub.ndofs for sub in problem.subdomains])])
        self._B_D = _nonredundant_scaled_gluing(problem)
        self._B_Dt = self._B_D.T.tocsr()
        self.refresh()

    def _operator(self) -> sp.csr_matrix:
        """``blockdiag(Opᵢ)`` at the current stiffness values."""
        raise NotImplementedError

    def refresh(self) -> None:
        """Reassemble ``M`` from the current stiffness values, in place."""
        #: The assembled preconditioner (``n_λ × n_λ`` CSR).
        self.matrix = self._B_D @ self._operator() @ self._B_Dt
        #: ``w ↦ M w``, the kernel bound to this assembly.
        self.product = CsrProduct(self.matrix)

    def apply(self, w: np.ndarray) -> np.ndarray:
        """Apply ``M w`` (one SpMV)."""
        return self.product(w)

    def apply_block(self, W: np.ndarray) -> np.ndarray:
        """Apply ``M`` to every column (one SpMM, bitwise equal to per-column)."""
        return self.product(W)

    __call__ = apply


class LumpedPreconditioner(_AssembledPreconditioner):
    """The lumped preconditioner ``M = Σᵢ B̃_D,ᵢ Kᵢ B̃_D,ᵢᵀ``."""

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
    """The Dirichlet preconditioner ``M = Σᵢ B̃_D,ᵢ Sᵢ B̃_D,ᵢᵀ``.

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
