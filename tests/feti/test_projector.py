"""Tests of the coarse-space projector."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api import Session, SolverSpec
from repro.api.workload import Workload, build_problem
from repro.feti.projector import Projector, build_projector

# heat / elasticity x 2D / 3D, each as one cluster and as several.
WORKLOADS = [
    pytest.param(Workload("heat", 2, (2, 2), 3), id="heat-2d"),
    pytest.param(Workload("heat", 2, (4, 4), 3, n_clusters=4), id="heat-2d-c4"),
    pytest.param(
        Workload("heat", 3, (2, 2, 1), 2, dirichlet_faces=("zmin",)), id="heat-3d"
    ),
    pytest.param(
        Workload("heat", 3, (2, 2, 1), 2, n_clusters=2, dirichlet_faces=("zmin",)),
        id="heat-3d-c2",
    ),
    pytest.param(Workload("elasticity", 2, (2, 1), 3), id="elasticity-2d"),
    pytest.param(
        Workload("elasticity", 2, (4, 2), 3, n_clusters=4), id="elasticity-2d-c4"
    ),
    pytest.param(Workload("elasticity", 3, (2, 1, 1), 2), id="elasticity-3d"),
    pytest.param(
        Workload("elasticity", 3, (2, 2, 1), 2, n_clusters=2), id="elasticity-3d-c2"
    ),
]


@pytest.fixture(params=WORKLOADS)
def problem(request):
    return build_problem(request.param)


@pytest.fixture()
def projector(problem):
    return build_projector(problem)


def test_projector_annihilates_range_of_G(projector, problem):
    G = problem.assemble_G()
    rng = np.random.default_rng(0)
    y = rng.standard_normal(G.shape[1])
    Gy = G @ y
    assert np.linalg.norm(projector.apply(Gy)) <= 1e-10 * np.linalg.norm(Gy)


def test_projector_is_idempotent_and_symmetric(projector, problem):
    n = problem.n_lambda
    rng = np.random.default_rng(1)
    x = rng.standard_normal(n)
    px = projector.apply(x)
    assert np.allclose(projector.apply(px), px, atol=1e-10)
    # symmetry: <Px, y> == <x, Py>
    y = rng.standard_normal(n)
    assert projector.apply(x) @ y == pytest.approx(x @ projector.apply(y))


def test_projected_vector_is_orthogonal_to_G(projector, problem):
    G = problem.assemble_G()
    rng = np.random.default_rng(2)
    x = rng.standard_normal(problem.n_lambda)
    assert np.allclose(G.T @ projector.apply(x), 0.0, atol=1e-10)


def test_initial_lambda_satisfies_coarse_constraint(projector, problem):
    e = problem.compute_e()
    lam0 = projector.initial_lambda(e)
    G = problem.assemble_G()
    assert np.allclose(G.T @ lam0, e, atol=1e-10)


def test_alpha_recovery_formula(projector, problem):
    rng = np.random.default_rng(3)
    residual = rng.standard_normal(problem.n_lambda)
    alpha = projector.alpha(residual)
    G = problem.assemble_G()
    gtg = (G.T @ G).toarray()
    assert np.allclose(gtg @ alpha, -(G.T @ residual), atol=1e-10)


def test_apply_block_is_bitwise_equal_to_per_column_applies(projector, problem):
    rng = np.random.default_rng(9)
    X = rng.standard_normal((problem.n_lambda, 4))
    block = projector.apply_block(X)
    for j in range(X.shape[1]):
        assert np.array_equal(block[:, j], projector.apply(X[:, j].copy()))


def test_callable_interface(heat_problem_2d):
    projector = build_projector(heat_problem_2d)
    x = np.ones(heat_problem_2d.n_lambda)
    assert np.allclose(projector(x), projector.apply(x))


def test_empty_G_rejected():
    with pytest.raises(ValueError):
        Projector(sp.csr_matrix((5, 0)))


def test_projector_stats_count_applies_and_solves():
    problem = build_problem(Workload("heat", 2, (4, 4), 3, n_clusters=4))
    projector = build_projector(problem)
    x = np.ones(problem.n_lambda)
    projector.apply(x)
    projector.coarse_solve(np.ones(projector.n_kernel))
    stats = projector.stats()
    assert stats["applies"] == 1
    assert stats["solves"] == 1  # apply()'s internal solve is not standalone
    assert stats["seconds"] >= 0.0
    assert stats["factor_seconds"] > 0.0


def test_multicluster_solve_meets_the_saddle_point_oracle():
    """The independent check of the one coarse path on a clustered workload."""
    workload = Workload("heat", 2, (8, 8), 8, n_clusters=4)
    session = Session(SolverSpec(approach="expl modern", assembly="table2"))
    solution = session.solve(workload)
    assert solution.converged
    u_ref, _ = session.problem(workload).saddle_point_solution()
    u = np.concatenate(solution.primal)
    assert np.linalg.norm(u - u_ref) <= 1e-6 * np.linalg.norm(u_ref)
