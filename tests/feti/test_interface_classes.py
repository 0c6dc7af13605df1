"""Every explicit approach's ``F̃ᵢ`` against the per-subdomain oracle, over a class zoo.

The runtime assembles ``F̃ᵢ`` once per interface class (the same-pattern
members whose ``P B̃ᵢᵀ`` share their sorted column first rows).  The zoo
crosses heat and elasticity, 2D and 3D, one and two Dirichlet faces, so the
classes range from corner singletons to stacks of interior subdomains.

Every explicit approach holds **bitwise** the per-subdomain kernel of
``tests/oracles/schur.py`` on its own factors: ``expl mkl`` and ``expl
hybrid`` with the PARDISO-like pruning, ``expl cholmod`` without it, and
``expl legacy`` / ``expl modern``, whose simulated device assembly is
cost-only, through the same CHOLMOD-like facade.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import SolverSpec, Workload
from repro.api.workload import build_problem
from repro.feti.solver import FetiSolver
from repro.runtime.executor import shared_executor

from tests.oracles.schur import schur_complement

ZOO = {
    "heat2d": Workload("heat", 2, (4, 4), 4),
    "heat2d-2faces": Workload("heat", 2, (4, 3), 4, dirichlet_faces=("xmin", "ymin")),
    "elasticity2d": Workload("elasticity", 2, (3, 3), 3),
    "elasticity2d-2faces": Workload(
        "elasticity", 2, (3, 3), 3, dirichlet_faces=("xmin", "ymax")
    ),
    "heat3d": Workload("heat", 3, (3, 2, 2), 3),
    "heat3d-2faces": Workload("heat", 3, (2, 2, 2), 3, dirichlet_faces=("xmin", "zmax")),
    "elasticity3d": Workload("elasticity", 3, (2, 2, 2), 2),
    "elasticity3d-2faces": Workload(
        "elasticity", 3, (2, 2, 2), 2, dirichlet_faces=("xmin", "ymin")
    ),
}

#: approach -> whether its facade prunes the right-hand side
APPROACHES = {
    "expl mkl": True,
    "expl cholmod": False,
    "expl hybrid": True,
    "expl legacy": False,
    "expl modern": False,
}


@pytest.mark.parametrize("approach", sorted(APPROACHES))
@pytest.mark.parametrize("name", sorted(ZOO))
def test_packed_local_F_is_the_per_subdomain_oracle(name, approach):
    exploit = APPROACHES[approach]
    solver = FetiSolver(
        build_problem(ZOO[name]),
        SolverSpec(approach=approach),
        executor=shared_executor("serial"),
    )
    operator = solver.operator
    operator.prepare()
    operator.preprocess()
    local_F = operator.local_F
    sizes: dict[bytes, int] = {}
    for sub in operator.problem.subdomains:
        scatter = operator._schur_scatters[sub.index]
        sizes[scatter.key] = sizes.get(scatter.key, 0) + 1
        want = schur_complement(operator._cpu_solvers[sub.index]._factor, sub.B, exploit)
        assert np.array_equal(local_F[sub.index], want), sub.index
    if not exploit:
        # Every column starts at row 0: a class is the members of one n_λ.
        n_lambdas = {sub.n_lambda for sub in operator.problem.subdomains}
        assert len(sizes) == len(n_lambdas)


@pytest.mark.parametrize("name", ["heat2d", "elasticity2d-2faces", "heat3d"])
def test_the_zoo_stacks_members(name):
    """The zoo exercises real stacks, not only classes of one."""
    solver = FetiSolver(
        build_problem(ZOO[name]),
        SolverSpec(approach="expl mkl"),
        executor=shared_executor("serial"),
    )
    solver.operator.prepare()
    keys = [scatter.key for scatter in solver.operator._schur_scatters.values()]
    assert len(set(keys)) < len(keys)
