"""Test oracle: the per-subdomain preconditioner loop.

``M w = Σᵢ scatter(B̃ᵢ,s Opᵢ B̃ᵢ,sᵀ gather(w))`` with ``B̃ᵢ,s = B̃ᵢ Dᵢ⁻¹``,
one subdomain at a time, reading the stiffness live.  This is the
implementation :mod:`repro.feti.preconditioner` had before it assembled
``M`` explicitly; it shares no code with the assembled path (no global
``B``, no block-diagonal operator, column-by-column Schur solves).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.feti.problem import FetiProblem, SubdomainProblem

__all__ = ["lumped_apply", "dirichlet_apply"]


def _scaled_B(sub: SubdomainProblem) -> sp.csr_matrix:
    return (sub.B @ sp.diags(1.0 / sub.dof_multiplicity)).tocsr()


def lumped_apply(problem: FetiProblem, w: np.ndarray) -> np.ndarray:
    """``Σᵢ B̃ᵢ,s Kᵢ B̃ᵢ,sᵀ w``, subdomain by subdomain."""
    out = np.zeros_like(w)
    for sub in problem.subdomains:
        Bs = _scaled_B(sub)
        np.add.at(out, sub.lambda_ids, Bs @ (sub.K @ (Bs.T @ w[sub.lambda_ids])))
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
    """``Σᵢ B̃ᵢ,s Sᵢ B̃ᵢ,sᵀ w`` with ``Sᵢ`` on the constrained DOFs."""
    out = np.zeros_like(w)
    for sub in problem.subdomains:
        if sub.B.nnz == 0:
            continue
        boundary = np.unique(sub.B.indices)
        Bs = _scaled_B(sub)
        local = Bs.T @ w[sub.lambda_ids]
        full = np.zeros(sub.ndofs)
        full[boundary] = _schur_complement(sub, boundary) @ local[boundary]
        np.add.at(out, sub.lambda_ids, Bs @ full)
    return out
