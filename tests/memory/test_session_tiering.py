"""Tests of the session's budget-aware factor tiering.

The contract under test: a memory ceiling changes *where bytes live*, never
*what solves return*.  A release drops a cold entry's factors and ``F̃ᵢ``
(0 budgeted bytes) and keeps its structure, so its next solve re-factorizes
in the spec's own precision; the results are bitwise identical to an
unconstrained session.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.api import Session, SolverSpec, Workload
from repro.memory.ledger import measure_solver

SPEC = SolverSpec(approach="expl mkl")
WORKLOADS = [
    Workload("heat", 2, (2, 1), 3),
    Workload("heat", 2, (2, 2), 3),
    Workload("heat", 2, (3, 1), 3),
]


def _entry_total(workload: Workload, spec: SolverSpec = SPEC) -> int:
    with Session(spec, memory_budget="unlimited") as session:
        session.solve(workload)
        return measure_solver(session.solver(workload)).total


def _reference_solutions(spec: SolverSpec = SPEC):
    with Session(spec, memory_budget="unlimited") as session:
        return {w: session.solve(w) for w in WORKLOADS}


def _assert_bitwise_equal(a, b) -> None:
    assert np.array_equal(a.lam, b.lam)
    for ua, ub in zip(a.primal, b.primal):
        assert np.array_equal(ua, ub)


def test_unconstrained_session_never_tiers(monkeypatch):
    monkeypatch.delenv("REPRO_MEMORY_BUDGET", raising=False)
    with Session(SPEC) as session:
        for w in WORKLOADS:
            session.solve(w)
        stats = session.cache_stats()
    assert session.memory_budget_bytes is None
    assert stats["memory_budget_bytes"] is None
    assert stats["releases"] == 0
    assert stats["refactorizations"] == 0
    assert stats["resident_bytes"] > 0
    assert stats["resident_entries"] == len(WORKLOADS)


def test_tier_counters_zero_before_any_solve():
    with Session(SPEC) as session:
        stats = session.cache_stats()
    assert stats["resident_bytes"] == 0
    assert stats["peak_resident_bytes"] == 0
    assert stats["resident_entries"] == 0
    assert stats["released_entries"] == 0


def test_budget_pressure_releases_then_solves_identically():
    reference = _reference_solutions()
    budget = int(1.2 * max(_entry_total(w) for w in WORKLOADS))
    with Session(SPEC, memory_budget=budget) as session:
        first = {w: session.solve(w) for w in WORKLOADS}
        stats_mid = session.cache_stats()
        # Cold entries were released to fit.
        assert stats_mid["releases"] >= 1
        # Re-solving every workload re-factorizes the affected entries
        # lazily and still returns bitwise-identical fp64 solutions.
        second = {w: session.solve(w) for w in WORKLOADS}
        stats = session.cache_stats()
    assert session.memory_budget_bytes == budget
    assert stats["refactorizations"] >= 1
    for w in WORKLOADS:
        _assert_bitwise_equal(first[w], reference[w])
        _assert_bitwise_equal(second[w], reference[w])


def _released_entries_hold_nothing(session: Session) -> bool:
    return all(
        measure_solver(solver).total == 0
        for key, solver in session._solvers.items()  # noqa: SLF001
        if session.tier.state(key) == "released"
    )


def test_starvation_budget_releases_every_cold_entry():
    reference = _reference_solutions()
    budget = int(0.9 * min(_entry_total(w) for w in WORKLOADS))
    with Session(SPEC, memory_budget=budget) as session:
        passes = []
        for _ in range(2):
            for w in WORKLOADS:
                _assert_bitwise_equal(session.solve(w), reference[w])
                stats = session.cache_stats()
                # Only the active entry holds bytes: the ledger is its fresh
                # measurement, and every other entry is released.
                active = session.solver(w)
                assert stats["resident_bytes"] == measure_solver(active).total > 0
                assert stats["released_entries"] == stats["solvers"] - 1
                assert _released_entries_hold_nothing(session)
            passes.append(stats)
    first, second = passes
    assert (first["releases"], first["refactorizations"]) == (len(WORKLOADS) - 1, 0)
    # The second pass re-factors every entry lazily, once each.
    assert second["releases"] == 2 * len(WORKLOADS) - 1
    assert second["refactorizations"] == len(WORKLOADS)


def test_fp32_entries_are_released_like_fp64_ones():
    spec = SolverSpec(approach="expl mkl", precision="fp32")
    reference = _reference_solutions(spec)
    budget = int(0.9 * min(_entry_total(w, spec) for w in WORKLOADS[:2]))
    with Session(spec, memory_budget=budget) as session:
        for w in [WORKLOADS[0], WORKLOADS[1], WORKLOADS[0]]:
            _assert_bitwise_equal(session.solve(w), reference[w])
        stats = session.cache_stats()
        assert _released_entries_hold_nothing(session)
    assert (stats["releases"], stats["refactorizations"]) == (2, 1)


def test_budget_from_environment_and_explicit_override(monkeypatch):
    monkeypatch.setenv("REPRO_MEMORY_BUDGET", "64M")
    with Session(SPEC) as from_env:
        assert from_env.memory_budget_bytes == 64 * 1024**2
    with Session(SPEC, memory_budget="unlimited") as unlimited:
        assert unlimited.memory_budget_bytes is None
    with Session(SPEC, memory_budget="128K") as explicit:
        assert explicit.memory_budget_bytes == 128 * 1024
    monkeypatch.delenv("REPRO_MEMORY_BUDGET")
    with Session(SPEC) as plain:
        assert plain.memory_budget_bytes is None


def test_hammer_concurrent_solves_under_budget_stay_bitwise_identical():
    """Satellite: many threads against one budget-constrained session.

    Every thread mixes single solves and two-column block solves across
    all workloads while the tier releases entries under their feet; the
    returned fp64 solutions must be bitwise identical to an unconstrained
    session's, and the counters must stay consistent.
    """
    reference = _reference_solutions()
    with Session(SPEC, memory_budget="unlimited") as session:
        block_reference = {w: session.solve_many(w, [None, None]) for w in WORKLOADS}
    budget = int(1.2 * max(_entry_total(w) for w in WORKLOADS))
    errors: list[BaseException] = []

    with Session(SPEC, memory_budget=budget) as session:

        def worker(seed: int) -> None:
            try:
                for round_ in range(2):
                    for w in WORKLOADS:
                        if (seed + round_) % 2:
                            solutions = session.solve_many(w, [None, None])
                            references = block_reference[w]
                        else:
                            solutions = [session.solve(w)]
                            references = [reference[w]]
                        for solution, ref in zip(solutions, references):
                            _assert_bitwise_equal(solution, ref)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
        stats = session.cache_stats()

    assert not errors, errors
    # Counter consistency: every lazy re-factorization consumed exactly one
    # earlier release, and the ledger tracks live solvers only.
    assert stats["refactorizations"] <= stats["releases"]
    assert stats["resident_entries"] == stats["solvers"]
    assert 0 < stats["resident_bytes"] <= stats["peak_resident_bytes"]


def test_a_released_entry_refactors_once_at_the_first_step_of_a_run(monkeypatch):
    """Under ``REPRO_MEMORY_BUDGET=400K`` the second workload releases the
    first; a load-only run of the first re-factorizes at step 0 only and
    returns bitwise the fp64 answer of an unconstrained session.

    Each entry holds 256 000 B once its factors are bands (103 680 B of
    them), so the two fit in 1M and exceed 400K; the released one holds 0.
    """
    schedule = Workload("heat", 2, (4, 4), 8, steps=3, load_ramp=0.5)
    other = Workload("heat", 2, (4, 4), 8, n_clusters=2)
    with Session(SPEC, memory_budget="unlimited") as session:
        reference = session.run(schedule)
    monkeypatch.setenv("REPRO_MEMORY_BUDGET", "400K")
    with Session(SPEC) as session:
        session.solve(schedule)
        session.solve(other)
        stats = session.cache_stats()
        assert stats["releases"] == 1
        assert stats["released_entries"] == 1
        assert stats["resident_bytes"] == 256000
        result = session.run(schedule)
        assert session.cache_stats()["refactorizations"] == stats["refactorizations"] + 1
    assert [r.preprocessed for r in result.records] == [True, False, False]
    assert session.solver(schedule).operator.ledger.count("preprocessing") == 2
    _assert_bitwise_equal(result.solution, reference.solution)
