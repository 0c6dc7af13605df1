"""Tests of the byte-accurate factor ledger."""

from __future__ import annotations

import pytest

from repro.api import Session, SolverSpec, Workload
from repro.memory.ledger import EntryBytes, FactorLedger, measure_solver

W = Workload("heat", 2, (2, 1), 3)


def test_entry_bytes_total_and_dict():
    entry = EntryBytes(factor_bytes=100, pack_bytes=30, arena_bytes=7)
    assert entry.total == 137
    assert entry.to_dict() == {
        "factor_bytes": 100,
        "pack_bytes": 30,
        "arena_bytes": 7,
        "total_bytes": 137,
    }
    assert EntryBytes().total == 0


def test_ledger_used_peak_semantics():
    ledger = FactorLedger()
    ledger.record("a", EntryBytes(factor_bytes=1000))
    ledger.record("b", EntryBytes(factor_bytes=500, arena_bytes=100))
    assert ledger.resident_bytes == 1600
    assert ledger.peak_bytes == 1600
    assert len(ledger) == 2

    # Re-recording replaces, not accumulates.
    ledger.record("a", EntryBytes(factor_bytes=400))
    assert ledger.resident_bytes == 1000
    assert ledger.peak_bytes == 1600  # peak survives the shrink

    ledger.record("b", EntryBytes())  # a released entry
    assert ledger.resident_bytes == 400
    assert ledger.entry("missing") is None
    assert ledger.entries() == {"a": EntryBytes(factor_bytes=400), "b": EntryBytes()}


def test_measure_solver_matches_the_operator_report_exactly():
    """The ledger must report real ndarray bytes, not estimates."""
    with Session(SolverSpec(approach="expl mkl")) as session:
        session.solve(W)
        solver = session.solver(W)
        report = solver.operator.storage_nbytes()
        entry = measure_solver(solver)
        # The operator itself measures the same as its owning solver (before
        # the session's close releases both).
        assert measure_solver(solver.operator) == entry
    assert entry.factor_bytes == report["factor"] > 0
    assert entry.pack_bytes == report["pack"]
    assert entry.arena_bytes == report["arena"]
    assert entry.total == sum(report.values())


def test_fp32_entry_measures_smaller_than_fp64():
    with Session(SolverSpec(approach="expl mkl")) as fp64:
        fp64.solve(W)
        full = measure_solver(fp64.solver(W))
    with Session(SolverSpec(approach="expl mkl", precision="fp32")) as fp32:
        fp32.solve(W)
        half = measure_solver(fp32.solver(W))
    assert full.factor_bytes == 2 * half.factor_bytes
    assert half.total < full.total


#: Every approach holds what its CPU counterpart holds: the simulated GPU's
#: device memory is byte sizes, not host arrays.
HOST_TWINS = {
    approach: "expl mkl" if approach.startswith("expl") else "impl cholmod"
    for approach in (
        "expl mkl", "expl cholmod", "expl legacy", "expl modern", "expl hybrid",
        "impl mkl", "impl cholmod", "impl legacy", "impl modern",
    )
}


@pytest.mark.parametrize("precision", ["fp64", "fp32"])
@pytest.mark.parametrize("approach", sorted(HOST_TWINS))
def test_every_approach_reports_the_host_bytes_of_its_cpu_twin(approach, precision):
    workload = Workload("heat", 2, (4, 4), 6, n_clusters=2)

    def report(name):
        spec = SolverSpec(approach=name, precision=precision)
        with Session(spec, memory_budget="unlimited") as session:
            assert session.solve(workload).converged
            return session.solver(workload).operator.storage_nbytes()

    assert report(approach) == report(HOST_TWINS[approach])


@pytest.mark.parametrize(
    "workload, expected",
    [
        # Four blocks of 325-494 rows, every one above SYMV_MIN_ROWS: no
        # pack, each F̃ᵢ held once, unpadded (Σ n_λᵢ² · 8 B).
        (Workload("heat", 3, (2, 2, 1), 12), {"factor": 9420736, "pack": 5562128, "arena": 0}),
        # 64 blocks of at most 34 rows: one padded pack, 64 x 34² x 8 B.
        (
            Workload("heat", 2, (8, 8), 8, n_clusters=4),
            {"factor": 414720, "pack": 591872, "arena": 17408},
        ),
    ],
    ids=["heat-3d-large-blocks", "heat-2d-packed"],
)
def test_explicit_storage_is_one_unpadded_copy_of_each_large_block(workload, expected):
    with Session(SolverSpec(approach="expl mkl"), memory_budget="unlimited") as session:
        assert session.solve(workload).converged
        operator = session.solver(workload).operator
        assert operator.storage_nbytes() == expected
