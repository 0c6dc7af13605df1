"""Tests of the dual preconditioners."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Session, SolverSpec, Workload
from repro.api.workload import build_problem
from repro.decomposition import decompose_box
from repro.feti.preconditioner import (
    DirichletPreconditioner,
    IdentityPreconditioner,
    LumpedPreconditioner,
)
from repro.feti.problem import FetiProblem
from repro.feti.solver import FetiSolver, MultiStepDriver, PreconditionerKind
from tests.oracles.preconditioner import dense_B, dirichlet_apply, lumped_apply

KINDS = [
    (LumpedPreconditioner, lumped_apply),
    (DirichletPreconditioner, dirichlet_apply),
]
#: Realistic sizes (the benchmark's problems), not only the 2x2 fixture.
ORACLE_WORKLOADS = [
    Workload("heat", 2, (8, 8), 8, n_clusters=4),
    Workload("heat", 3, (2, 2, 1), 12),
    Workload("elasticity", 2, (4, 4), 4),
]


def test_identity_returns_input(heat_problem_2d):
    pre = IdentityPreconditioner(heat_problem_2d)
    x = np.arange(heat_problem_2d.n_lambda, dtype=float)
    assert pre.apply(x) is x


@pytest.mark.parametrize("cls", [LumpedPreconditioner, DirichletPreconditioner])
def test_preconditioner_is_symmetric_positive_semidefinite(heat_problem_2d, cls):
    pre = cls(heat_problem_2d)
    n = heat_problem_2d.n_lambda
    rng = np.random.default_rng(0)
    # build the dense operator by applying to basis vectors
    M = np.column_stack([pre.apply(np.eye(n)[:, j]) for j in range(n)])
    assert np.allclose(M, M.T, atol=1e-9)
    eigs = np.linalg.eigvalsh(M)
    assert eigs.min() > -1e-9
    x = rng.standard_normal(n)
    assert x @ pre.apply(x) >= -1e-9


@pytest.mark.parametrize("cls", [LumpedPreconditioner, DirichletPreconditioner])
def test_preconditioner_linear(heat_problem_2d, cls):
    pre = cls(heat_problem_2d)
    rng = np.random.default_rng(1)
    n = heat_problem_2d.n_lambda
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    assert np.allclose(pre.apply(2.0 * x + y), 2.0 * pre.apply(x) + pre.apply(y))


@pytest.mark.parametrize(
    "kind",
    [PreconditionerKind.NONE, PreconditionerKind.LUMPED, PreconditionerKind.DIRICHLET],
)
def test_all_preconditioners_converge_to_same_solution(heat_problem_2d, kind):
    reference = None
    options = SolverSpec(
        preconditioner=kind, tolerance=1e-10, max_iterations=300
    )
    solver = FetiSolver(heat_problem_2d, options)
    solution = solver.solve()
    assert solution.converged
    u = np.concatenate(solution.primal)
    u_ref, _ = heat_problem_2d.saddle_point_solution()
    assert np.allclose(u, u_ref, atol=1e-7)


def test_preconditioning_reduces_iterations(elasticity_problem_2d):
    """Strictly: lumped beats none, dirichlet is no worse than lumped."""
    def run(kind):
        opts = SolverSpec(
            preconditioner=kind, tolerance=1e-8, max_iterations=400
        )
        return FetiSolver(elasticity_problem_2d, opts).solve().iterations

    none, lumped, dirichlet = (run(kind) for kind in PreconditionerKind)
    assert lumped < none
    assert dirichlet <= lumped


@pytest.mark.parametrize("workload", ORACLE_WORKLOADS, ids=Workload.describe)
@pytest.mark.parametrize("cls, oracle", KINDS)
def test_assembled_matches_per_subdomain_oracle(workload, cls, oracle):
    problem = build_problem(workload)
    pre = cls(problem)
    x = np.random.default_rng(2).standard_normal(problem.n_lambda)
    expected = oracle(problem, x)
    assert pre.matrix.shape == (problem.n_lambda, problem.n_lambda)
    assert np.linalg.norm(pre.apply(x) - expected) <= 1e-13 * np.linalg.norm(expected)


@pytest.mark.parametrize(
    "workload",
    [*ORACLE_WORKLOADS, Workload("elasticity", 3, (2, 2, 2), 4)],
    ids=Workload.describe,
)
def test_scaled_gluing_algebra(workload):
    """``B_D Bᵀ = I``, Dirichlet rows untouched, ``M`` symmetric and ``≥ 0``."""
    problem = build_problem(workload)
    n = problem.n_lambda
    B = dense_B(problem)
    x = np.random.default_rng(6).standard_normal(n)
    for cls in (LumpedPreconditioner, DirichletPreconditioner):
        pre = cls(problem)
        M = pre.matrix
        assert abs(M - M.T).max() <= 1e-12 * abs(M).max()
        assert x @ pre.apply(x) >= 0.0
    B_D = pre._B_D  # the scaling is the same for both kinds
    assert np.abs(B_D @ B.T - np.eye(n)).max() <= 1e-14
    dirichlet_rows = slice(problem.gluing.n_gluing, n)
    assert np.array_equal(B_D[dirichlet_rows].toarray(), B[dirichlet_rows])


@pytest.mark.parametrize("cls", [LumpedPreconditioner, DirichletPreconditioner])
def test_apply_block_bitwise_equals_per_column_apply(heat_problem_3d, cls):
    pre = cls(heat_problem_3d)
    W = np.random.default_rng(3).standard_normal((heat_problem_3d.n_lambda, 5))
    block = pre.apply_block(W)
    for j in range(W.shape[1]):
        assert np.array_equal(block[:, j], pre.apply(np.ascontiguousarray(W[:, j])))


def _triple_stiffness(step, problem):
    if step == 0:
        for sub in problem.subdomains:
            sub.K.data *= 3.0
            sub.K_reg.data *= 3.0


@pytest.mark.parametrize("kind", ["lumped", "dirichlet"])
def test_preconditioner_follows_stiffness_values(heat, kind):
    """``preprocess()`` refreshes the built preconditioner in place."""
    dec = decompose_box(2, 2, 4, order=1, n_clusters=2)
    problem = FetiProblem.from_physics(heat, dec, dirichlet_faces=("xmin",))
    solver = FetiSolver(problem, SolverSpec(preconditioner=kind))
    pre = solver.preconditioner
    x = np.random.default_rng(4).standard_normal(problem.n_lambda)
    pristine = pre.apply(x)
    records = MultiStepDriver(solver, update=_triple_stiffness).run(2)
    assert all(record.converged for record in records)
    assert solver.preconditioner is pre
    assert np.allclose(pre.apply(x), 3.0 * pristine, rtol=1e-12, atol=0.0)


def test_session_restores_preconditioner_after_custom_update():
    """A schedule's stiffness change must not outlive it in ``M``."""
    workload = Workload("heat", 2, (2, 2), 3)
    with Session(SolverSpec(preconditioner="dirichlet")) as session:
        pre = session.solver(workload).preconditioner
        x = np.random.default_rng(5).standard_normal(pre.problem.n_lambda)
        pristine = pre.apply(x)
        session.run_steps(workload, n_steps=1, update=_triple_stiffness)
        assert session.solve(workload).converged
        assert session.solver(workload).preconditioner is pre
        assert np.array_equal(pre.apply(x), pristine)


#: The benchmark's four configurations at the pristine loads, under the
#: default lumped preconditioner with the non-redundant scaling ``B_D``.
PINNED_ITERATIONS = [
    (Workload("heat", 2, (8, 8), 8, n_clusters=4), {"approach": "expl modern", "assembly": "table2"}, 21),
    (Workload("heat", 2, (4, 4), 8, n_clusters=2), {"approach": "expl mkl"}, 20),
    (Workload("heat", 3, (2, 2, 1), 12), {"approach": "expl mkl"}, 25),
    (Workload("heat", 3, (2, 2, 1), 12), {"approach": "impl mkl"}, 25),
]


@pytest.fixture(scope="module")
def pinned_session():
    # One session: the two heat 3D specs share its symbolic analyses.
    with Session() as session:
        yield session


@pytest.mark.parametrize(
    "workload, spec, iterations",
    PINNED_ITERATIONS,
    ids=[f"{w.describe()}-{s['approach']}" for w, s, _ in PINNED_ITERATIONS],
)
def test_benchmark_iteration_counts_are_pinned(pinned_session, workload, spec, iterations):
    solution = pinned_session.solve(workload, SolverSpec(**spec))
    assert solution.converged
    assert solution.iterations == iterations
