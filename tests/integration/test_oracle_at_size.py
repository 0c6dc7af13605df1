"""Independent oracles at many subdomains.

The solve path builds ``G``, ``B̃`` and the preconditioner from the
problem's shape-group stacks and gluing entries in vectorized passes.  These
checks read neither: ``Gᵀλ = e`` with ``G = B R`` assembled from the global
gluing matrix and the per-subdomain kernel blocks (``e`` from the
per-subdomain oracle), and the primal against a direct sparse solve of the
whole saddle-point system — on 256 heat 2D subdomains and on 64 subdomains
each of elasticity 2D, heat 3D and elasticity 3D.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api import Session, SolverSpec, Workload
from tests.oracles.coarse import looped_compute_e

CASES = {
    "heat2d-16x16x8-c4": (Workload("heat", 2, (16, 16), 8, n_clusters=4), 256),
    "elasticity2d-8x8x8": (Workload("elasticity", 2, (8, 8), 8), 64),
    "heat3d-4x4x4x3": (Workload("heat", 3, (4, 4, 4), 3), 64),
    "elasticity3d-4x4x4x2": (Workload("elasticity", 3, (4, 4, 4), 2), 64),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def solved(request):
    workload, n_subdomains = CASES[request.param]
    with Session(SolverSpec(approach="expl mkl"), memory_budget="unlimited") as session:
        solution = session.solve(workload)
        problem = session.problem(workload)
        assert problem.n_subdomains == n_subdomains
        yield request.param, problem, solution


def test_the_multipliers_satisfy_the_coarse_constraint(solved):
    name, problem, solution = solved
    assert solution.converged
    B = problem.gluing.global_B([sub.ndofs for sub in problem.subdomains])
    R = sp.block_diag([sub.kernel for sub in problem.subdomains], format="csr")
    e = looped_compute_e(problem)
    defect = (B @ R).T @ solution.lam - e
    assert np.linalg.norm(defect) <= 1e-12 * np.linalg.norm(e), name


def test_the_primal_matches_the_saddle_point_solution(solved):
    name, problem, solution = solved
    u_ref, _ = problem.saddle_point_solution()
    u = np.concatenate(solution.primal)
    assert np.abs(u - u_ref).max() <= 1e-8 * np.abs(u_ref).max(), name
