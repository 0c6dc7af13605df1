"""Every approach's operator against the per-subdomain oracle, over a class zoo.

The runtime assembles ``F̃ᵢ`` once per interface class (the same-pattern
members whose ``P B̃ᵢᵀ`` share their sorted column first rows).  The zoo
crosses heat and elasticity, 2D and 3D, one and two Dirichlet faces, so the
classes range from corner singletons to stacks of interior subdomains.

``expl mkl`` holds **bitwise** the per-subdomain kernel of
``tests/oracles/schur.py`` on its own factors.  The CPU library an approach
stands for is a cost, not a numeric path: every other explicit approach
assembles ``expl mkl``'s ``F̃ᵢ`` bit for bit (the simulated device assembly
is cost-only), and every implicit approach applies like ``impl mkl``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import SolverSpec, Workload
from repro.api.workload import build_problem
from repro.feti.solver import FetiSolver

from tests.oracles.kplus import member_factor
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

#: The explicit approaches other than ``expl mkl``.
EXPLICIT = ["expl cholmod", "expl hybrid", "expl legacy", "expl modern"]
#: The implicit approaches other than ``impl mkl``.
IMPLICIT = ["impl cholmod", "impl legacy", "impl modern"]


def _preprocessed(name, approach):
    solver = FetiSolver(build_problem(ZOO[name]), SolverSpec(approach=approach))
    operator = solver.operator
    operator.prepare()
    operator.preprocess()
    return operator


@pytest.mark.parametrize("name", sorted(ZOO))
def test_packed_local_F_is_the_per_subdomain_oracle(name):
    operator = _preprocessed(name, "expl mkl")
    local_F = operator.local_F
    for sub in operator.problem.subdomains:
        want = schur_complement(member_factor(operator, sub.index), sub.B)
        assert np.array_equal(local_F[sub.index], want), sub.index


@pytest.mark.parametrize("approach", EXPLICIT)
@pytest.mark.parametrize("name", sorted(ZOO))
def test_every_explicit_approach_assembles_the_expl_mkl_operator(name, approach):
    want = _preprocessed(name, "expl mkl").local_F
    got = _preprocessed(name, approach).local_F
    assert got.keys() == want.keys()
    for index, F in got.items():
        assert np.array_equal(F, want[index]), index


@pytest.mark.parametrize("approach", IMPLICIT)
@pytest.mark.parametrize("name", sorted(ZOO))
def test_every_implicit_approach_applies_like_impl_mkl(name, approach):
    reference = _preprocessed(name, "impl mkl")
    operator = _preprocessed(name, approach)
    lam = np.random.default_rng(7).standard_normal(operator.problem.n_lambda)
    assert np.array_equal(operator.apply(lam), reference.apply(lam))


@pytest.mark.parametrize("name", ["heat2d", "elasticity2d-2faces", "heat3d"])
def test_the_zoo_stacks_members(name):
    """The zoo exercises real stacks, not only classes of one."""
    solver = FetiSolver(build_problem(ZOO[name]), SolverSpec(approach="expl mkl"))
    solver.operator.prepare()
    keys = [scatter.key for group in solver.operator._groups for scatter in group.scatters]
    assert len(set(keys)) < len(keys)
