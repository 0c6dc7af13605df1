"""Determinism of the parallel runtime.

Every executor runs one preprocessing path: the same stacked factorization
and the same per-subdomain Schur assembly on the same values.  So the
factors (panels and diagonal-block inverses) and every ``F̃ᵢ`` are bitwise
equal across serial, threads and processes.  The solve phase runs in the
caller's process on every executor, so the solutions of all nine
dual-operator approaches are bitwise equal too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Session, SolverSpec, Workload
from repro.api.workload import build_problem
from repro.feti.config import DualOperatorApproach
from repro.feti.solver import FetiSolver
from repro.runtime.executor import shared_executor

WORKLOADS = {
    "heat-2d": Workload("heat", 2, (2, 2), 4),
    "elasticity-3d": Workload("elasticity", 3, (2, 1, 1), 2),
}

#: The approaches that assemble ``F̃ᵢ`` with the CPU solver facades.
CPU_EXPLICIT = [
    DualOperatorApproach.EXPLICIT_MKL,
    DualOperatorApproach.EXPLICIT_CHOLMOD,
    DualOperatorApproach.EXPLICIT_HYBRID,
]


def _solver(approach, workload, backend="serial"):
    """A fresh solver; pools are shared process-wide.

    ``shared_executor`` reuses one worker pool per backend across the whole
    parametrized sweep — the sweep then measures determinism, not pool
    start-up, and stays fast on small CI runners.
    """
    return FetiSolver(
        build_problem(workload),
        SolverSpec(approach=approach),
        executor=shared_executor(backend),
    )


def _solve(approach, workload, backend="serial"):
    return _solver(approach, workload, backend).solve()


@pytest.fixture(scope="module")
def serial_solutions():
    """Serial reference solutions of every (approach, workload) pair."""
    return {
        (approach, wname): _solve(approach, workload)
        for wname, workload in WORKLOADS.items()
        for approach in DualOperatorApproach
    }


@pytest.mark.parametrize("backend", ["threads:2", "processes:2"])
@pytest.mark.parametrize("wname", sorted(WORKLOADS))
@pytest.mark.parametrize("approach", list(DualOperatorApproach))
def test_parallel_executors_reproduce_serial_solutions(
    approach, wname, backend, serial_solutions
):
    workload = WORKLOADS[wname]
    solution = _solve(approach, workload, backend)
    reference = serial_solutions[(approach, wname)]

    assert solution.iterations == reference.iterations
    assert solution.converged and reference.converged
    pairs = [(solution.lam, reference.lam), (solution.alpha, reference.alpha)]
    pairs += list(zip(solution.primal, reference.primal))
    for got, ref in pairs:
        assert np.array_equal(got, ref)
    # The simulated-time semantics are exactly the serial ones: sharding
    # changes wall-clock execution, never the modeled machine.
    assert (
        solution.preprocessing.simulated_seconds
        == reference.preprocessing.simulated_seconds
    )
    assert solution.dual_apply_seconds == reference.dual_apply_seconds


def _preprocessed(approach, workload, backend):
    """Factors (panels, inverses) and packed ``F̃ᵢ`` of one round, by subdomain."""
    operator = _solver(approach, workload, backend).operator
    operator.prepare()
    operator.preprocess()
    factors = {
        i: (s._factor.panels.copy(), s._factor.inverses.copy())
        for i, s in operator._cpu_solvers.items()
    }
    blocks = operator.batch_engine.dense.blocks
    local_F = {
        sub.index: blocks[sub.index, : sub.n_lambda, : sub.n_lambda].copy()
        for sub in operator.problem.subdomains
    }
    return factors, local_F


@pytest.mark.parametrize("wname", sorted(WORKLOADS))
@pytest.mark.parametrize("approach", CPU_EXPLICIT)
def test_factors_and_local_F_are_bitwise_equal_across_executors(approach, wname):
    factors, local_F = _preprocessed(approach, WORKLOADS[wname], "serial")
    for backend in ("threads:2", "processes:2"):
        got_factors, got_F = _preprocessed(approach, WORKLOADS[wname], backend)
        assert got_factors.keys() == factors.keys() and got_F.keys() == local_F.keys()
        for i, (panels, inverses) in factors.items():
            assert np.array_equal(got_factors[i][0], panels), (backend, i)
            assert np.array_equal(got_factors[i][1], inverses), (backend, i)
        for i, F in local_F.items():
            assert np.array_equal(got_F[i], F), (backend, i)


@pytest.mark.parametrize("wname", sorted(WORKLOADS))
def test_threads_and_processes_are_bitwise_identical(wname):
    """The two parallel backends run the same kernels on the same shards."""
    workload = WORKLOADS[wname]
    solutions = {
        backend: _solve(DualOperatorApproach.EXPLICIT_MKL, workload, backend)
        for backend in ("threads:2", "processes:2")
    }
    a, b = solutions["threads:2"], solutions["processes:2"]
    assert np.array_equal(a.lam, b.lam)
    assert np.array_equal(a.alpha, b.alpha)
    for ga, gb in zip(a.primal, b.primal):
        assert np.array_equal(ga, gb)


def test_repeated_parallel_preprocessing_is_stable():
    """Re-running preprocess on the same operator reproduces the factors."""
    workload = WORKLOADS["heat-2d"]
    solver = FetiSolver(
        build_problem(workload),
        SolverSpec(approach=DualOperatorApproach.EXPLICIT_MKL),
        executor=shared_executor("processes:2"),
    )
    operator = solver.operator
    operator.prepare()
    operator.preprocess()
    first = {i: operator.local_F[i].copy() for i in sorted(operator.local_F)}
    operator.preprocess()
    for i, F in first.items():
        assert np.array_equal(operator.local_F[i], F)


def test_session_declared_execution_reproduces_serial(serial_solutions):
    """The Session path (spec-declared execution) matches serial too."""
    workload = WORKLOADS["heat-2d"]
    approach = DualOperatorApproach.EXPLICIT_MKL
    with Session(SolverSpec(approach=approach, execution="processes:2")) as session:
        solution = session.solve(workload)
    reference = serial_solutions[(approach, "heat-2d")]
    assert np.array_equal(solution.lam, reference.lam)


def test_symbolic_is_shipped_once_per_pattern_per_executor():
    """Multi-round preprocessing re-sends only the analysis digest."""
    workload = WORKLOADS["heat-2d"]
    executor = shared_executor("processes:2")
    solver = FetiSolver(
        build_problem(workload),
        SolverSpec(approach=DualOperatorApproach.EXPLICIT_MKL),
        executor=executor,
    )
    operator = solver.operator
    operator.prepare()
    operator.preprocess()
    seeded = set(executor.seeded_keys)
    assert seeded  # the first round seeded the workers
    first = {i: operator.local_F[i].copy() for i in sorted(operator.local_F)}
    operator.preprocess()  # second round ships digests only
    assert executor.seeded_keys >= seeded
    for i, F in first.items():
        assert np.array_equal(operator.local_F[i], F)
