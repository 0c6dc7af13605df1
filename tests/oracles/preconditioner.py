"""Test oracle: the dual preconditioners, dense scaling and a subdomain loop.

``M w = Σᵢ B_D,ᵢ Opᵢ B_D,ᵢᵀ w`` where ``B_D,ᵢ`` is subdomain ``i``'s column
block of the non-redundant scaled gluing matrix
``B_D = (B D⁻¹ Bᵀ)⁻¹ B D⁻¹``.  Everything is done the slow, obvious way so
the oracle shares no code with :mod:`repro.feti.preconditioner`: the global
``B`` is filled block by block into a dense array (no ``global_B``), ``B_D``
comes from one dense ``np.linalg.solve`` (no block detection, no batched
inverses), the operators are applied one subdomain at a time reading the
stiffness live (no block-diagonal operator, no assembled ``M``), and the
Schur complements are solved column by column.  Dense ``n_λ``-sized arrays
limit it to ``n_λ`` of about a thousand.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

from repro.feti.problem import FetiProblem, SubdomainProblem

__all__ = ["dense_B", "dense_B_D", "lumped_apply", "dirichlet_apply"]


def _column_blocks(problem: FetiProblem) -> list[slice]:
    offsets = np.concatenate([[0], np.cumsum([sub.ndofs for sub in problem.subdomains])])
    return [slice(a, b) for a, b in zip(offsets[:-1], offsets[1:])]


def dense_B(problem: FetiProblem) -> np.ndarray:
    """The global ``B = [B̃₁ … B̃_N]`` as a dense ``(n_λ, Σ ndofs)`` array."""
    blocks = _column_blocks(problem)
    B = np.zeros((problem.n_lambda, blocks[-1].stop))
    for sub, block in zip(problem.subdomains, blocks):
        B[sub.lambda_ids, block] = sub.B.toarray()
    return B


def dense_B_D(problem: FetiProblem) -> np.ndarray:
    """``(B D⁻¹ Bᵀ)⁻¹ B D⁻¹`` by one dense solve."""
    B = dense_B(problem)
    multiplicity = np.concatenate([sub.dof_multiplicity for sub in problem.subdomains])
    # Only the constrained columns of ``B D⁻¹`` are nonzero: solve for those.
    constrained = np.flatnonzero(np.abs(B).sum(axis=0))
    B_Dinv = B[:, constrained] / multiplicity[constrained]
    B_D = np.zeros_like(B)
    B_D[:, constrained] = np.linalg.solve(B_Dinv @ B[:, constrained].T, B_Dinv)
    return B_D


def lumped_apply(problem: FetiProblem, w: np.ndarray) -> np.ndarray:
    """``Σᵢ B_D,ᵢ Kᵢ B_D,ᵢᵀ w``, subdomain by subdomain."""
    B_D = dense_B_D(problem)
    out = np.zeros_like(w)
    for sub, block in zip(problem.subdomains, _column_blocks(problem)):
        out += B_D[:, block] @ (sub.K @ (B_D[:, block].T @ w))
    return out


def _schur_complement(sub: SubdomainProblem, boundary: np.ndarray) -> np.ndarray:
    interior = np.setdiff1d(np.arange(sub.ndofs), boundary)
    K = sub.K.tocsc()
    Kbb = K[np.ix_(boundary, boundary)].toarray()
    if interior.size == 0:
        return Kbb
    Kib = K[np.ix_(interior, boundary)].tocsc()
    solve = spla.factorized(K[np.ix_(interior, interior)].tocsc())
    X = np.column_stack(
        [solve(np.asarray(Kib[:, j].todense()).ravel()) for j in range(boundary.size)]
    )
    return Kbb - Kib.T @ X


def dirichlet_apply(problem: FetiProblem, w: np.ndarray) -> np.ndarray:
    """``Σᵢ B_D,ᵢ Sᵢ B_D,ᵢᵀ w`` with ``Sᵢ`` on the constrained DOFs."""
    B_D = dense_B_D(problem)
    out = np.zeros_like(w)
    for sub, block in zip(problem.subdomains, _column_blocks(problem)):
        if sub.B.nnz == 0:
            continue
        boundary = np.unique(sub.B.indices)
        local = B_D[:, block].T @ w
        full = np.zeros(sub.ndofs)
        full[boundary] = _schur_complement(sub, boundary) @ local[boundary]
        out += B_D[:, block] @ full
    return out
