"""Determinism of the parallel runtime.

Every executor runs one preprocessing path: the same stacked factorization
and the same interface-class Schur assembly on the same values (a member's
factor does not depend on where its group's band stack puts it, nor its
``F̃ᵢ`` on which shard's class it joins).  So the factors (the bands of
``L``) and every ``F̃ᵢ`` are bitwise equal between serial and threads,
whatever the worker count — even, uneven or more workers than a cluster has
subdomains.  The solve phase runs in the caller's thread
on every executor, so the solutions of all nine dual-operator approaches
are bitwise equal too.
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
    # 16 subdomains in interface classes of up to 4: a parallel executor
    # splits the cluster into shards, and so every class across them.
    "heat-2d-classes": Workload("heat", 2, (4, 4), 3),
    # Bands wider than 64 (kd = 98): LAPACK's blocked dpbtrf, whose members
    # the stack aligns, and shards that start the stack at other members.
    "elasticity-3d-wide": Workload("elasticity", 3, (3, 1, 1), 4),
}

#: Approaches whose ``F̃ᵢ`` come from the runtime round: every explicit
#: approach's, the simulated GPU assembly's included (it is cost-only).
EXPLICIT = [
    DualOperatorApproach.EXPLICIT_MKL,
    DualOperatorApproach.EXPLICIT_CHOLMOD,
    DualOperatorApproach.EXPLICIT_HYBRID,
    DualOperatorApproach.EXPLICIT_GPU_MODERN,
]

#: Worker counts whose shard splits differ on every workload: two workers
#: halve each cluster, three split it unevenly (4 → 2/1/1, 16 → 6/5/5, so
#: interface classes straddle shards at different offsets), four give
#: ``heat-2d`` one subdomain per shard and out-number ``elasticity-3d``'s two.
THREAD_BACKENDS = ["threads:2", "threads:3", "threads:4"]


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


@pytest.mark.parametrize("backend", THREAD_BACKENDS)
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
    """Factor bands and ``F̃ᵢ`` of one round, by subdomain."""
    operator = _solver(approach, workload, backend).operator
    operator.prepare()
    operator.preprocess()
    factors = {i: s._factor.band.copy() for i, s in operator._cpu_solvers.items()}
    local_F = {i: F.copy() for i, F in operator.local_F.items()}
    return factors, local_F


@pytest.mark.parametrize("wname", sorted(WORKLOADS))
@pytest.mark.parametrize("approach", EXPLICIT)
def test_factors_and_local_F_are_bitwise_equal_across_executors(approach, wname):
    factors, local_F = _preprocessed(approach, WORKLOADS[wname], "serial")
    for backend in THREAD_BACKENDS:
        got_factors, got_F = _preprocessed(approach, WORKLOADS[wname], backend)
        assert got_factors.keys() == factors.keys() and got_F.keys() == local_F.keys()
        for i, band in factors.items():
            assert np.array_equal(got_factors[i], band), (backend, i)
        for i, F in local_F.items():
            assert np.array_equal(got_F[i], F), (backend, i)


def test_repeated_parallel_preprocessing_is_stable():
    """Re-running preprocess on the same operator reproduces the factors."""
    workload = WORKLOADS["heat-2d"]
    solver = FetiSolver(
        build_problem(workload),
        SolverSpec(approach=DualOperatorApproach.EXPLICIT_MKL),
        executor=shared_executor("threads:2"),
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
    with Session(SolverSpec(approach=approach, execution="threads:2")) as session:
        solution = session.solve(workload)
    reference = serial_solutions[(approach, "heat-2d")]
    assert np.array_equal(solution.lam, reference.lam)
