"""Test oracle: ``K⁺`` one subdomain and one vector at a time.

What ``DualOperator`` ran before the stacked solve: every ``Kᵢ⁺ b`` is one
``SparseSolver.solve`` on that subdomain's own factorization (refinement
per the solver's precision policy included), every product around it one
``scipy.sparse`` matmul on that subdomain's ``B̃ᵢ`` / ``B̃ᵢᵀ`` / ``Rᵢ``, every
scatter one ``np.add.at``.  The functions take a *preprocessed* operator and
read only ``operator._cpu_solvers`` and ``operator.problem`` — none of the
engine's block-diagonal products, flat index maps or panel stacks.
"""

from __future__ import annotations

import numpy as np

from repro.feti.operators.base import DualOperator

__all__ = [
    "kplus_solve",
    "looped_dual_rhs",
    "looped_primal_solution",
    "looped_apply_accurate",
]


def kplus_solve(operator: DualOperator, index: int, rhs: np.ndarray) -> np.ndarray:
    """Apply the generalized inverse ``Kᵢ⁺`` of one subdomain."""
    solver = operator._cpu_solvers.get(index)
    if solver is None or not solver.is_factorized:
        raise RuntimeError("no CPU factorization available; run preprocess() first")
    return solver.solve(rhs)


def looped_dual_rhs(operator: DualOperator) -> np.ndarray:
    """``d = B K⁺ f − c``, one ``np.add.at`` per subdomain."""
    d = -np.array(operator.problem.c, dtype=float, copy=True)
    for sub in operator.problem.subdomains:
        np.add.at(d, sub.lambda_ids, sub.B @ kplus_solve(operator, sub.index, sub.f))
    return d


def looped_primal_solution(
    operator: DualOperator, lam: np.ndarray, alpha: np.ndarray
) -> list[np.ndarray]:
    """``uᵢ = Kᵢ⁺ (fᵢ − B̃ᵢᵀ λ) + Rᵢ αᵢ``, subdomain by subdomain."""
    offsets = operator.problem.kernel_offsets
    out = []
    for sub in operator.problem.subdomains:
        u = kplus_solve(operator, sub.index, sub.f - sub.Bt @ lam[sub.lambda_ids])
        out.append(u + sub.kernel @ alpha[offsets[sub.index] : offsets[sub.index + 1]])
    return out


def looped_apply_accurate(operator: DualOperator, lam: np.ndarray) -> np.ndarray:
    """``q = Σ B̃ᵢ Kᵢ⁺ B̃ᵢᵀ λᵢ`` through the (refined) per-subdomain solves.

    Also the values of the implicit CPU apply; its oracle with the simulated
    timeline replayed is ``tests/oracles/apply.py::looped_apply``.
    """
    q = np.zeros(operator.problem.n_lambda)
    for sub in operator.problem.subdomains:
        z = kplus_solve(operator, sub.index, sub.Bt @ lam[sub.lambda_ids])
        np.add.at(q, sub.lambda_ids, sub.B @ z)
    return q
