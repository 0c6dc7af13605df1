"""Test oracle: the per-subdomain dual scatter/gather and primal recovery.

What ``SubdomainProblem.local_dual`` / ``accumulate_dual`` and
``FetiProblem.primal_solution`` did before the solve path moved to flat
maps and stacked ``K⁺`` solves: one subdomain at a time, through SciPy's
``spsolve`` on each ``K_reg,ᵢ`` — independent of the factorizations the
dual operators keep.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

__all__ = ["accumulate_dual", "local_dual", "primal_solution"]


def local_dual(sub, global_dual: np.ndarray) -> np.ndarray:
    """Scatter: restrict a global dual vector to one subdomain."""
    return global_dual[sub.lambda_ids]


def accumulate_dual(sub, global_dual: np.ndarray, local: np.ndarray) -> None:
    """Gather: add one subdomain's local dual contribution into the global vector."""
    np.add.at(global_dual, sub.lambda_ids, local)


def primal_solution(problem, lam: np.ndarray, alpha: np.ndarray) -> list[np.ndarray]:
    """``uᵢ = K_reg,ᵢ⁻¹ (fᵢ − B̃ᵢᵀ λ) + Rᵢ αᵢ``, one ``spsolve`` per subdomain.

    ``K_reg⁻¹`` is an exact generalized inverse of ``K``.
    """
    offsets = problem.kernel_offsets
    solutions = []
    for sub in problem.subdomains:
        rhs = sub.f - sub.Bt @ lam[sub.lambda_ids]
        u = spla.spsolve(sub.K_reg.tocsc(), rhs)
        a = alpha[offsets[sub.index] : offsets[sub.index + 1]]
        solutions.append(u + sub.kernel @ a)
    return solutions
