"""Determinism of the parallel runtime.

Every executor runs one preprocessing path: the same stacked factorization
and the same interface-class Schur assembly on the same values (a member's
factor does not depend on where its group's band stack puts it, nor its
``F̃ᵢ`` on which span's class it joins).  So the factors (the bands of
``L``) and every ``F̃ᵢ`` are bitwise equal between serial and threads,
whatever the worker count — even, uneven or more workers than a pattern
group has subdomains.  The solve phase runs in the caller's thread
on every executor, so the solutions of all nine dual-operator approaches
are bitwise equal too.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

import repro.runtime.preprocess as preprocess
from repro.api import Session, SolverSpec, Workload
from repro.api.workload import build_problem
from repro.feti.config import DualOperatorApproach
from repro.feti.solver import FetiSolver
from repro.runtime.executor import shared_executor

WORKLOADS = {
    "heat-2d": Workload("heat", 2, (2, 2), 4),
    "elasticity-3d": Workload("elasticity", 3, (2, 1, 1), 2),
    # 16 subdomains in interface classes of up to 4: a parallel executor
    # splits the pattern group into spans, and so every class across them.
    "heat-2d-classes": Workload("heat", 2, (4, 4), 3),
    # Bands wider than 64 (kd = 98): LAPACK's blocked dpbtrf, whose members
    # the stack aligns, and spans that start the stack at other members.
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

#: Worker counts whose span splits differ on every workload: two workers
#: halve each pattern group, three split it unevenly (4 → 2/1/1, 16 → 6/5/5,
#: so interface classes straddle spans at different offsets), four give
#: ``heat-2d`` one subdomain per span and out-number ``elasticity-3d``'s two.
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
    # The simulated-time semantics are exactly the serial ones: the spans
    # change wall-clock execution, never the modeled machine.
    assert (
        solution.preprocessing.simulated_seconds
        == reference.preprocessing.simulated_seconds
    )
    assert solution.dual_apply_seconds == reference.dual_apply_seconds


@pytest.mark.parametrize("workers", [1, 2, 3, 10])
def test_spans_cut_the_group_ordered_members_contiguously(workers):
    """``≤ workers`` near-equal spans, each its groups' runs, in member order.

    A run is ``(group, start, stop)``: members ``start:stop`` of one group.
    """
    groups = [list("abcd"), list("e"), list("fg")]
    spans = preprocess._spans(groups, workers)
    assert len(spans) == min(workers, 7)
    runs = [run for span in spans for run in span]
    assert [m for g, start, stop in runs for m in groups[g][start:stop]] == list("abcdefg")
    assert all(0 <= start < stop <= len(groups[g]) for g, start, stop in runs)
    sizes = [sum(stop - start for _, start, stop in span) for span in spans]
    assert max(sizes) - min(sizes) <= 1
    if workers == 1:  # serial: one task over every group, whole
        assert spans == [[(g, 0, len(group)) for g, group in enumerate(groups)]]


def _preprocessed(approach, workload, backend):
    """Factor bands and ``F̃ᵢ`` of one round, by subdomain."""
    operator = _solver(approach, workload, backend).operator
    operator.prepare()
    operator.preprocess()
    factors = {
        i: row.copy() for group in operator._groups for i, row in zip(group.members, group.band)
    }
    local_F = {i: F.copy() for i, F in operator.local_F.items()}
    return factors, local_F


#: The factor check also runs on four clusters of one pattern group: the
#: serial round stacks the 64 members as one band, the spans cut it across
#: cluster boundaries.
FACTOR_WORKLOADS = {**WORKLOADS, "heat-2d-c4": Workload("heat", 2, (8, 8), 8, n_clusters=4)}


@pytest.mark.parametrize("wname", sorted(FACTOR_WORKLOADS))
@pytest.mark.parametrize("approach", EXPLICIT)
def test_factors_and_local_F_are_bitwise_equal_across_executors(approach, wname):
    workload = FACTOR_WORKLOADS[wname]
    factors, local_F = _preprocessed(approach, workload, "serial")
    for backend in THREAD_BACKENDS:
        got_factors, got_F = _preprocessed(approach, workload, backend)
        assert got_factors.keys() == factors.keys() and got_F.keys() == local_F.keys()
        for i, band in factors.items():
            assert np.array_equal(got_factors[i], band), (backend, i)
        for i, F in local_F.items():
            assert np.array_equal(got_F[i], F), (backend, i)


#: Factor bytes of ``heat-2d-c4``'s one group: 64 x 81 x (kd 9 + 1) x 8 B.
HEAT_2D_C4_FACTOR_BYTES = 414_720


@pytest.mark.parametrize("backend", ["serial", *THREAD_BACKENDS])
def test_a_solve_after_any_round_reads_the_factorizations_own_band(monkeypatch, backend):
    """No ``K⁺`` solve copies a band, whatever cut the spans made.

    After a preprocessing and one ``dual_rhs()`` the group's band is made of
    the arrays ``stacked_cholesky`` returned (every run of a group cut
    across spans is factored into its rows of the band), and the factor
    bytes are the serial round's.
    """
    returned = []
    factor = preprocess.stacked_cholesky

    def recorded(*args, **kwargs):
        band = factor(*args, **kwargs)
        returned.append(band)
        return band

    monkeypatch.setattr(preprocess, "stacked_cholesky", recorded)
    workload = FACTOR_WORKLOADS["heat-2d-c4"]
    operator = _solver(DualOperatorApproach.IMPLICIT_MKL, workload, backend).operator
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the spans' tasks interleave as often as they can
    try:
        operator.preprocess()
    finally:
        sys.setswitchinterval(interval)
    d = operator.dual_rhs()
    (group,) = operator._groups
    assert sum(band.shape[0] for band in returned) == len(group) == workload.n_subdomains
    assert all(np.shares_memory(group.band, band) for band in returned)
    assert operator.storage_nbytes()["factor"] == HEAT_2D_C4_FACTOR_BYTES
    serial = _solver(DualOperatorApproach.IMPLICIT_MKL, workload).operator
    serial.preprocess()
    assert np.array_equal(group.band, serial._groups[0].band)
    assert np.array_equal(d, serial.dual_rhs())


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
