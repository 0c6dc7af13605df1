"""One ``K_reg`` sparsity pattern per subdomain shape.

What a subdomain's regularized stiffness stores must follow from its mesh
connectivity alone — not from where the subdomain sits in the box, which
decides whether a coupling that cancels in theory comes out as an exact zero
or as rounding noise.  Then the pattern cache analyses each shape once and
the stacked ``K⁺`` kernel sees all same-shape subdomains as one stack.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Session, SolverSpec, Workload
from repro.api.workload import build_problem
from repro.sparse.cache import structural_key

#: Every physics, dimension and element order on a regular grid, with
#: ``h = 1/6`` or ``1/9`` (coordinates that are not binary fractions).
ZOO = [
    Workload(physics, dim, (3,) * dim if order == 1 else (2,) * dim, 3, order=order)
    for physics in ("heat", "elasticity")
    for dim in (2, 3)
    for order in (1, 2)
]

#: The heat 3D workloads of record: the Algorithm-2 step benchmark and the
#: scalability ladder's 27-subdomain problem.
HEAT_3D = {
    "2x2x1x12": Workload("heat", 3, (2, 2, 1), 12),
    "3x3x3x4": Workload("heat", 3, (3, 3, 3), 4),
}


def _shape(sub) -> tuple:
    return sub.mesh.nnodes, sub.mesh.cells.tobytes()


@pytest.mark.parametrize(
    "workload", ZOO, ids=lambda w: f"{w.physics}-{w.dim}d-p{w.order}"
)
def test_every_subdomain_shape_has_exactly_one_k_reg_pattern(workload):
    patterns: dict[tuple, set] = {}
    for sub in build_problem(workload).subdomains:
        patterns.setdefault(_shape(sub), set()).add(structural_key(sub.K_reg))
    assert all(len(keys) == 1 for keys in patterns.values())
    assert len(patterns) == 1  # a box decomposition has one subdomain shape


@pytest.mark.parametrize("approach", ["impl mkl", "expl mkl"])
@pytest.mark.parametrize("name", HEAT_3D)
def test_heat_3d_analyses_once_and_meets_the_saddle_point_oracle(name, approach):
    workload = HEAT_3D[name]
    with Session(SolverSpec(approach=approach)) as session:
        solution = session.solve(workload)
        stats = session.cache_stats()
        problem = session.problem(workload)
    assert solution.converged
    assert stats["symbolic_analyses"] == 1
    assert stats["pattern_hits"] == problem.n_subdomains - 1
    u_ref, _ = problem.saddle_point_solution()
    u = np.concatenate(solution.primal)
    assert np.abs(u - u_ref).max() <= 1e-8 * np.abs(u_ref).max()
