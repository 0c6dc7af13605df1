"""End-to-end tests of the FETI solver and the multi-step driver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.decomposition import decompose_box
from repro.feti.config import DualOperatorApproach
from repro.api import SolverSpec
from repro.feti.problem import FetiProblem
from repro.feti.solver import (
    FetiSolver,
    MultiStepDriver,
    PreconditionerKind,
)

from tests.oracles.apply import use_looped_apply


def _solve(problem, approach, machine_config, tol=1e-10):
    options = SolverSpec(
        approach=approach,
        preconditioner=PreconditionerKind.LUMPED,
        tolerance=tol,
        max_iterations=400,
        machine=machine_config,
    )
    return FetiSolver(problem, options).solve()


@pytest.mark.parametrize(
    "approach",
    [
        DualOperatorApproach.IMPLICIT_MKL,
        DualOperatorApproach.EXPLICIT_MKL,
        DualOperatorApproach.EXPLICIT_GPU_LEGACY,
        DualOperatorApproach.EXPLICIT_GPU_MODERN,
        DualOperatorApproach.EXPLICIT_HYBRID,
    ],
)
def test_heat_2d_matches_direct_solution(heat_problem_2d, small_machine_config, approach):
    solution = _solve(heat_problem_2d, approach, small_machine_config)
    assert solution.converged
    u = np.concatenate(solution.primal)
    u_ref, lam_ref = heat_problem_2d.saddle_point_solution()
    assert np.allclose(u, u_ref, atol=1e-7)


def test_heat_3d_matches_direct_solution(heat_problem_3d, small_machine_config):
    solution = _solve(
        heat_problem_3d, DualOperatorApproach.EXPLICIT_GPU_MODERN, small_machine_config
    )
    assert solution.converged
    u = np.concatenate(solution.primal)
    u_ref, _ = heat_problem_3d.saddle_point_solution()
    assert np.allclose(u, u_ref, atol=1e-6)


def test_elasticity_2d_matches_direct_solution(elasticity_problem_2d, small_machine_config):
    solution = _solve(
        elasticity_problem_2d, DualOperatorApproach.IMPLICIT_CHOLMOD, small_machine_config
    )
    assert solution.converged
    u = np.concatenate(solution.primal)
    u_ref, _ = elasticity_problem_2d.saddle_point_solution()
    assert np.allclose(u, u_ref, atol=1e-6)


def test_elasticity_3d_small_problem(elasticity, small_machine_config):
    dec = decompose_box(3, (2, 1, 1), 2, order=1)
    problem = FetiProblem.from_physics(elasticity, dec, dirichlet_faces=("xmin",))
    solution = _solve(problem, DualOperatorApproach.EXPLICIT_GPU_MODERN, small_machine_config)
    assert solution.converged
    u = np.concatenate(solution.primal)
    u_ref, _ = problem.saddle_point_solution()
    assert np.allclose(u, u_ref, atol=1e-6)


def test_lambda_satisfies_dirichlet_constraints(heat_problem_2d, small_machine_config):
    """The converged solution satisfies B u = c (both gluing and Dirichlet rows)."""
    solution = _solve(heat_problem_2d, DualOperatorApproach.IMPLICIT_MKL, small_machine_config)
    B = heat_problem_2d.gluing.global_B(
        [s.ndofs for s in heat_problem_2d.subdomains]
    )
    u = np.concatenate(solution.primal)
    assert np.allclose(B @ u, heat_problem_2d.c, atol=1e-7)


def test_solution_timings_populated(heat_problem_2d, small_machine_config):
    solution = _solve(
        heat_problem_2d, DualOperatorApproach.EXPLICIT_GPU_MODERN, small_machine_config
    )
    assert solution.preprocessing.simulated_seconds > 0
    assert solution.dual_apply_seconds > 0
    assert solution.iterations > 0


def test_gpu_approach_autoselects_table2_configuration(
    heat_problem_2d, small_machine_config
):
    options = SolverSpec(
        approach=DualOperatorApproach.EXPLICIT_GPU_MODERN,
        machine=small_machine_config,
        assembly="table2",
    )
    solver = FetiSolver(heat_problem_2d, options)
    config = solver.operator.config
    from repro.feti.config import FactorStorage, Path

    assert config.path is Path.SYRK
    assert config.forward_factor_storage is FactorStorage.DENSE  # modern CUDA


def test_multistep_driver_runs_algorithm_2(heat_problem_3d, small_machine_config):
    options = SolverSpec(
        approach=DualOperatorApproach.EXPLICIT_GPU_MODERN,
        machine=small_machine_config,
        assembly="table2",
        tolerance=1e-8,
        max_iterations=200,
    )
    solver = FetiSolver(heat_problem_3d, options)

    def update(step, problem):
        # change numerical values (not the pattern), as in the paper's use case
        for sub in problem.subdomains:
            sub.K = sub.K * (1.0 + 0.1 * step)
            sub.K_reg = sub.K_reg * (1.0 + 0.1 * step)
            sub.f = sub.f * (1.0 + 0.1 * step)

    driver = MultiStepDriver(solver, update=update)
    pristine = [(sub.K, sub.K_reg, sub.f) for sub in heat_problem_3d.subdomains]
    try:
        records = driver.run(3)
    finally:  # the fixture is shared by the whole session
        for sub, (K, K_reg, f) in zip(heat_problem_3d.subdomains, pristine):
            sub.K, sub.K_reg, sub.f = K, K_reg, f
    assert len(records) == 3
    assert all(r.converged for r in records)
    assert all(r.preprocessing_seconds > 0 for r in records)
    assert all(r.apply_seconds > 0 for r in records)
    assert driver.total_dual_operator_seconds == pytest.approx(
        sum(r.dual_operator_seconds for r in records)
    )
    # symbolic factorization/preparation ran exactly once across all steps
    assert solver.operator.ledger.count("preparation") == 1
    assert solver.operator.ledger.count("preprocessing") == 3


def test_solver_reuse_preprocessing_flag(heat_problem_2d, small_machine_config):
    options = SolverSpec(
        approach=DualOperatorApproach.IMPLICIT_MKL, machine=small_machine_config
    )
    solver = FetiSolver(heat_problem_2d, options)
    solver.preprocess()
    before = solver.operator.ledger.count("preprocessing")
    solver.solve(reuse_preprocessing=True)
    assert solver.operator.ledger.count("preprocessing") == before


def test_batched_and_looped_solvers_produce_identical_solutions(
    heat_problem_2d, small_machine_config
):
    """A whole solve on the loop oracle (apply and dual rhs) lands on the same answer."""
    options = SolverSpec(
        approach=DualOperatorApproach.EXPLICIT_MKL,
        machine=small_machine_config,
        tolerance=1e-11,
        max_iterations=400,
    )
    engine = FetiSolver(heat_problem_2d, options).solve()
    looped_solver = FetiSolver(heat_problem_2d, options)
    use_looped_apply(looped_solver.operator)
    looped = looped_solver.solve()
    assert engine.converged and looped.converged
    np.testing.assert_allclose(engine.lam, looped.lam, atol=1e-10)
    np.testing.assert_allclose(
        np.concatenate(engine.primal), np.concatenate(looped.primal), atol=1e-10
    )


def test_multistep_driver_records_accumulate_across_runs(
    heat_problem_2d, small_machine_config
):
    options = SolverSpec(
        approach=DualOperatorApproach.IMPLICIT_MKL,
        machine=small_machine_config,
    )
    driver = MultiStepDriver(FetiSolver(heat_problem_2d, options))
    first = driver.run(2)
    assert [r.step for r in first] == [0, 1]
    second = driver.run(1)
    # run() returns the accumulated record list and keeps earlier records.
    assert second is driver.records
    assert len(driver.records) == 3
    assert driver.total_dual_operator_seconds == pytest.approx(
        sum(r.dual_operator_seconds for r in driver.records)
    )
    assert all(r.dual_operator_seconds > 0 for r in driver.records)


def test_solver_reuse_preprocessing_reuses_ledger_phase(
    heat_problem_2d, small_machine_config
):
    options = SolverSpec(
        approach=DualOperatorApproach.EXPLICIT_MKL,
        machine=small_machine_config,
    )
    solver = FetiSolver(heat_problem_2d, options)
    first = solver.solve()
    ledger_phase = solver.operator.ledger.last("preprocessing")
    reused = solver.solve(reuse_preprocessing=True)
    # No new preprocessing phase ran and the returned timing is the cached one.
    assert solver.operator.ledger.count("preprocessing") == 1
    assert reused.preprocessing is ledger_phase
    np.testing.assert_allclose(reused.lam, first.lam, atol=1e-10)
    # A warm solve sums its own applies only, like the cold one did.
    assert reused.iterations == first.iterations
    assert reused.dual_apply_seconds == first.dual_apply_seconds
    fresh = solver.solve(reuse_preprocessing=False)
    assert solver.operator.ledger.count("preprocessing") == 2
    np.testing.assert_allclose(fresh.lam, first.lam, atol=1e-10)
