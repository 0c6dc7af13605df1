"""Test oracle: ``K⁺`` one subdomain and one vector at a time.

What ``DualOperator`` ran before the stacked solve, on a kernel of its own:
every ``Kᵢ⁺ b`` takes the subdomain's row of its pattern group's band as a
:class:`~repro.sparse.numeric.CholeskyFactor`, converts it to CSC
(``to_csc``) and runs two ``scipy.sparse.linalg.spsolve_triangular`` sweeps
(never :func:`~repro.sparse.triangular.solve_banded`); every product around
it is one ``scipy.sparse`` matmul on that subdomain's ``B̃ᵢ`` / ``B̃ᵢᵀ`` /
``Rᵢ``, every scatter one ``np.add.at``.  The functions take a
*preprocessed* operator and read only its pattern groups' analyses and
bands and ``operator.problem`` — none of the engine's block-diagonal
products, flat index maps or panel stacks.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import spsolve_triangular

from repro.feti.operators.base import DualOperator
from repro.sparse.numeric import CholeskyFactor

__all__ = [
    "member_factor",
    "kplus_solve",
    "looped_dual_rhs",
    "looped_primal_solution",
    "looped_apply_accurate",
]


def member_factor(operator: DualOperator, index: int) -> CholeskyFactor:
    """Subdomain ``index``'s factor: its row of its pattern group's band."""
    for group in operator._groups:
        if index in group.members and group.band is not None:
            return CholeskyFactor(group.symbolic, group.band[group.members.index(index)])
    raise RuntimeError("no CPU factorization available; run preprocess() first")


def kplus_solve(operator: DualOperator, index: int, rhs: np.ndarray) -> np.ndarray:
    """Apply the generalized inverse ``Kᵢ⁺`` of one subdomain.

    ``P K Pᵀ = L Lᵀ`` with ``L`` as stored (an fp32 band up-cast), solved by
    two sparse triangular sweeps on its CSC form.
    """
    factor = member_factor(operator, index)
    L = factor.to_csc().astype(np.float64)
    perm = factor.symbolic.perm
    y = spsolve_triangular(L, np.asarray(rhs, dtype=float)[perm], lower=True)
    x = np.empty(factor.n)
    x[perm] = spsolve_triangular(L.T.tocsr(), y, lower=False)
    return x


def looped_dual_rhs(operator: DualOperator, loads=None) -> np.ndarray:
    """``d = B K⁺ f − c``, one ``np.add.at`` per subdomain (``loads``:
    one vector per subdomain, ``None`` = each subdomain's ``f``)."""
    d = -np.array(operator.problem.c, dtype=float, copy=True)
    subdomains = operator.problem.subdomains
    for sub, f in zip(subdomains, loads or [sub.f for sub in subdomains]):
        np.add.at(d, sub.lambda_ids, sub.B @ kplus_solve(operator, sub.index, f))
    return d


def looped_primal_solution(
    operator: DualOperator, lam: np.ndarray, alpha: np.ndarray, loads=None
) -> list[np.ndarray]:
    """``uᵢ = Kᵢ⁺ (fᵢ − B̃ᵢᵀ λ) + Rᵢ αᵢ``, subdomain by subdomain."""
    offsets = operator.problem.kernel_offsets
    subdomains = operator.problem.subdomains
    out = []
    for sub, f in zip(subdomains, loads or [sub.f for sub in subdomains]):
        u = kplus_solve(operator, sub.index, f - sub.Bt @ lam[sub.lambda_ids])
        out.append(u + sub.kernel @ alpha[offsets[sub.index] : offsets[sub.index + 1]])
    return out


def looped_apply_accurate(operator: DualOperator, lam: np.ndarray) -> np.ndarray:
    """``q = Σ B̃ᵢ Kᵢ⁺ B̃ᵢᵀ λᵢ`` through the per-subdomain solves.

    Also the values of the implicit CPU apply; its oracle with the simulated
    timeline replayed is ``tests/oracles/apply.py::looped_apply``.
    """
    q = np.zeros(operator.problem.n_lambda)
    for sub in operator.problem.subdomains:
        z = kplus_solve(operator, sub.index, sub.Bt @ lam[sub.lambda_ids])
        np.add.at(q, sub.lambda_ids, sub.B @ z)
    return q
