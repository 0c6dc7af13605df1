"""Algorithm 2 preprocesses a step only when its stiffness values changed.

``MultiStepDriver.run`` compares the ``K`` / ``K_reg`` values a step's
update returns with the values its last preprocessing factored.  A load-only
step reuses the factors and ``F̃ᵢ`` — and must return bitwise what a run that
re-preprocesses every step returns — while any changed stiffness value, even
in ``K`` alone, makes the step preprocess again.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import SolverSpec, Workload
from repro.api.workload import build_problem
from repro.feti.solver import FetiSolver, MultiStepDriver, StepValues

HEAT3D = Workload("heat", 3, (2, 2, 1), 12)
#: Loads of step ``s`` are ``LOAD_SCALES[s]`` times the pristine loads.
LOAD_SCALES = (1.0, 1.5, 2.0, 0.5)


@pytest.fixture(scope="module")
def heat3d():
    """The shared heat 3D problem and its direct saddle-point solution at the
    pristine loads (the primal is linear in the loads, so ``s * u_ref`` is
    the oracle of every step's load scale ``s``)."""
    problem = build_problem(HEAT3D)
    u_ref, _ = problem.saddle_point_solution()
    return problem, u_ref


def _scale_loads(problem, base, scale):
    for sub, f0 in zip(problem.subdomains, base):
        sub.f = scale * f0


@pytest.mark.parametrize("approach", ["expl mkl", "impl mkl"])
def test_a_load_only_schedule_preprocesses_once_and_matches_per_step_preprocessing(
    heat3d, approach
):
    problem, u_ref = heat3d
    base = [sub.f.copy() for sub in problem.subdomains]
    solver = FetiSolver(problem, SolverSpec(approach=approach))
    solutions = []

    def update(step, problem):
        if step:
            solutions.append(driver.last_solution)
        _scale_loads(problem, base, LOAD_SCALES[step])

    driver = MultiStepDriver(solver, update)
    reference_solver = FetiSolver(problem, SolverSpec(approach=approach))
    try:
        records = driver.run(len(LOAD_SCALES))
        solutions.append(driver.last_solution)
        reference = []
        for scale in LOAD_SCALES:
            _scale_loads(problem, base, scale)
            reference.append(reference_solver.solve())  # preprocesses every step
    finally:
        _scale_loads(problem, base, 1.0)

    assert [r.preprocessed for r in records] == [True] + [False] * (len(LOAD_SCALES) - 1)
    assert solver.operator.ledger.count("preprocessing") == 1
    assert reference_solver.operator.ledger.count("preprocessing") == len(LOAD_SCALES)
    assert records[0].preprocessing_seconds > 0.0
    assert all(r.preprocessing_seconds == 0.0 for r in records[1:])
    assert all(r.dual_operator_seconds == r.apply_seconds > 0.0 for r in records[1:])
    for scale, solution, expected in zip(LOAD_SCALES, solutions, reference):
        assert solution.converged
        assert np.array_equal(solution.lam, expected.lam)
        u = np.concatenate(solution.primal)
        assert np.abs(u - scale * u_ref).max() <= 1e-6 * np.abs(scale * u_ref).max()


def _run(update, n_steps, solver=None):
    """Run ``n_steps`` of ``update`` on a shared small problem; return the driver."""
    solver = solver or FetiSolver(
        build_problem(Workload("heat", 2, (2, 2), 4)), SolverSpec(approach="expl mkl")
    )
    driver = MultiStepDriver(solver, update)
    driver.run(n_steps)
    return driver


def test_an_update_of_K_alone_preprocesses():
    """The lumped preconditioner reads ``K``: changing ``K`` but not ``K_reg``
    is a stiffness change, and the refreshed preconditioner follows it."""
    solver = FetiSolver(
        build_problem(Workload("heat", 2, (2, 2), 4)),
        SolverSpec(approach="expl mkl", preconditioner="lumped"),
    )
    before = []

    def update(step, problem):
        if step == 1:
            before.append(solver.preconditioner.matrix.data.copy())
        if step >= 1:
            return StepValues(K=[2.0 * group.K.values for group in problem.groups])
        return None

    driver = _run(update, 3, solver)
    assert [r.preprocessed for r in driver.records] == [True, True, False]
    assert solver.operator.ledger.count("preprocessing") == 2
    np.testing.assert_allclose(solver.preconditioner.matrix.data, 2.0 * before[0], rtol=1e-13)


def test_a_rebound_K_reg_with_equal_values_skips():
    """A step returning new arrays of the factored values reuses the factors."""
    def update(step, problem):
        if step == 1:
            return StepValues(K_reg=[group.K_reg.values.copy() for group in problem.groups])
        return None

    driver = _run(update, 2)
    assert [r.preprocessed for r in driver.records] == [True, False]


def test_every_run_preprocesses_its_first_step():
    driver = _run(None, 2)
    driver.run(2)
    assert [r.preprocessed for r in driver.records] == [True, False, True, False]
    assert driver.solver.operator.ledger.count("preprocessing") == 2


def test_a_changed_stiffness_value_preprocesses_the_steps_it_changes():
    """Steps 1 and 3 harden one subdomain's ``K`` and ``K_reg``; steps 2 and 4
    return the values as they are."""
    scale = [1.0]

    def update(step, problem):
        if step % 2:
            scale[0] *= 1.5
        last = problem.subdomains[-1].index
        values = {}
        for name in ("K", "K_reg"):
            values[name] = [getattr(group, name).values.copy() for group in problem.groups]
            for group, stack in zip(problem.groups, values[name]):
                stack[group.indices == last] *= scale[0]
        return StepValues(**values)

    driver = _run(update, 5)
    assert [r.preprocessed for r in driver.records] == [True, True, False, True, False]
