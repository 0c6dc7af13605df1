"""Tests of the cache-owning Session runner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Material, RunResult, Session, SolverSpec, Workload
from repro.sparse.cache import PatternCache

W_SMALL = Workload("heat", 2, (2, 1), 3)
#: Same geometry (= same sparsity pattern), different stiffness values.
W_SCALED = Workload("heat", 2, (2, 1), 3, material=Material(conductivity=2.0))


def _cpu_solvers(session, workload):
    return list(session.solver(workload).operator._cpu_solvers.values())


def test_two_same_pattern_workloads_share_one_symbolic_analysis():
    """The tentpole cache assertion: one symbolic analysis for N subdomains
    x M workloads as long as the sparsity pattern is shared."""
    session = Session(SolverSpec(approach="expl mkl"))
    first = session.solve(W_SMALL)
    second = session.solve(W_SCALED)
    assert first.converged and second.converged
    stats = session.cache_stats()
    assert stats["symbolic_analyses"] == 1
    # 2 subdomains x 2 workloads = 4 analyze() calls, 3 served by the cache.
    assert stats["pattern_hits"] == 3
    # ... and the bytes of that one analysis are reported next to the counts
    # (outside the per-entry factor budget: analyses are shared across entries).
    (symbolic,) = {id(s.symbolic): s.symbolic for s in _cpu_solvers(session, W_SMALL)}.values()
    assert stats["pattern_bytes"] == session.pattern_cache.nbytes == symbolic.nbytes > 0
    assert stats["resident_bytes"] == session.tier.ledger.resident_bytes  # semantics unchanged
    # Scaling the conductivity scales the solution down by the same factor.
    u1 = np.concatenate(first.primal)
    u2 = np.concatenate(second.primal)
    np.testing.assert_allclose(u1, 2.0 * u2, atol=1e-8)


def test_repeated_solve_reuses_the_prepared_solver():
    session = Session(SolverSpec(approach="expl mkl"))
    first = session.solve(W_SMALL)
    again = session.solve(W_SMALL)
    solver = session.solver(W_SMALL)
    # One preparation and one preprocessing across both solves.
    assert solver.operator.ledger.count("preparation") == 1
    assert solver.operator.ledger.count("preprocessing") == 1
    assert session.stats.solvers_built == 1
    assert session.stats.solver_reuses >= 1
    np.testing.assert_allclose(first.lam, again.lam, atol=1e-10)


def test_per_call_spec_override_builds_a_second_solver():
    session = Session(SolverSpec(approach="impl mkl"))
    q_impl = session.solve(W_SMALL)
    q_expl = session.solve(W_SMALL, SolverSpec(approach="expl mkl"))
    assert session.stats.solvers_built == 2
    np.testing.assert_allclose(q_impl.lam, q_expl.lam, atol=1e-8)
    operator = session.operator_for(W_SMALL, "cpu-explicit")
    assert operator is session.operator_for(W_SMALL, "cpu-explicit")


def test_workloads_resolve_from_presets_and_dicts():
    session = Session()
    by_name = session.problem("heat-2d-quick")
    by_dict = session.problem(Workload.from_preset("heat-2d-quick").to_dict())
    assert by_name is by_dict
    with pytest.raises(KeyError, match="registered presets"):
        session.solve("no-such-workload")
    with pytest.raises(TypeError, match="expected a Workload"):
        session.solve(7)  # type: ignore[arg-type]


def test_run_executes_the_declared_schedule_and_restores_loads():
    workload = Workload("heat", 2, (2, 1), 2, steps=3, load_ramp=0.5)
    session = Session(SolverSpec(approach="expl mkl"))
    problem = session.problem(workload)
    base = [sub.f.copy() for sub in problem.subdomains]

    result = session.run(workload)
    assert isinstance(result, RunResult)
    assert [r.step for r in result.records] == [0, 1, 2]
    assert result.converged
    assert result.total_dual_operator_seconds > 0
    assert result.solution is not None and result.solution.converged
    # Loads are restored to their pristine values after the schedule.
    for sub, f0 in zip(problem.subdomains, base):
        np.testing.assert_array_equal(sub.f, f0)
    # Preparation ran once; each step re-ran only the numeric preprocessing.
    solver = session.solver(workload)
    assert solver.operator.ledger.count("preparation") == 1
    assert solver.operator.ledger.count("preprocessing") == 3

    # Re-running is deterministic: the ramp scales from pristine loads.
    again = session.run(workload)
    assert [r.iterations for r in again.records] == [r.iterations for r in result.records]
    np.testing.assert_allclose(again.solution.lam, result.solution.lam, atol=1e-10)


def test_run_steps_does_not_leak_ramped_loads_across_sessions():
    """Built problems are shared process-wide; the schedule's load mutations
    must never escape run_steps (regression: a fresh Session used to snapshot
    the ramped loads as pristine and return a scaled solution)."""
    workload = Workload("heat", 2, (2, 2), 4, steps=3, load_ramp=0.5)
    flat = workload.with_(steps=1, load_ramp=0.0)
    Session(SolverSpec(approach="expl mkl")).run_steps(workload)
    fresh = Session(SolverSpec(approach="expl mkl"))
    u_after = np.concatenate(fresh.solve(workload).primal)
    u_flat = np.concatenate(fresh.solve(flat).primal)
    np.testing.assert_allclose(u_after, u_flat, atol=1e-9)


def test_run_uses_the_last_step_solution_without_an_extra_solve():
    workload = Workload("heat", 2, (2, 1), 2, steps=3, load_ramp=0.5)
    session = Session(SolverSpec(approach="expl mkl"))
    result = session.run(workload)
    solver = session.solver(workload)
    # Exactly the three scheduled preprocessings/solves ran — the returned
    # solution is the final step's, not a duplicate fourth solve.
    assert solver.operator.ledger.count("preprocessing") == 3
    assert result.solution is not None
    assert result.solution.iterations == result.records[-1].iterations


def test_custom_matrix_update_is_restored_and_invalidates_preprocessing():
    """A custom update may change stiffness values (the MultiStepDriver
    contract); the session must restore them on the shared problem and must
    not reuse the schedule's last factorization afterwards."""
    workload = Workload("heat", 2, (2, 1), 3, steps=2)
    session = Session(SolverSpec(approach="expl mkl"))
    problem = session.problem(workload)
    reference = np.concatenate(session.solve(workload).primal)
    K_before = [sub.K_reg.data.copy() for sub in problem.subdomains]

    def harden(step: int, p) -> None:
        for sub in p.subdomains:
            sub.K.data *= 1.0 + step
            sub.K_reg.data *= 1.0 + step

    session.run_steps(workload, update=harden)
    # Matrix values restored on the shared problem...
    for sub, data in zip(problem.subdomains, K_before):
        np.testing.assert_array_equal(sub.K_reg.data, data)
    # ...the same session re-preprocesses instead of reusing the stale
    # factorization...
    after_same_session = np.concatenate(session.solve(workload).primal)
    np.testing.assert_allclose(after_same_session, reference, atol=1e-9)
    # ...and an independent session sees the pristine problem too.
    fresh = np.concatenate(Session(SolverSpec(approach="expl mkl")).solve(workload).primal)
    np.testing.assert_allclose(fresh, reference, atol=1e-9)


def test_ramped_final_solution_scales_with_the_last_step():
    workload = Workload("heat", 2, (2, 1), 2, steps=3, load_ramp=0.5)
    session = Session(SolverSpec(approach="impl mkl"))
    result = session.run(workload)
    flat = session.solve(workload)  # pristine loads after restore
    u_final = np.concatenate(result.solution.primal)
    u_base = np.concatenate(flat.primal)
    # Final step load scale is 1 + 0.5 * 2 = 2.0.
    np.testing.assert_allclose(u_final, 2.0 * u_base, atol=1e-8)


def test_explicit_pattern_cache_is_shared_between_sessions():
    cache = PatternCache()
    a = Session(SolverSpec(approach="expl mkl"), pattern_cache=cache)
    b = Session(SolverSpec(approach="impl mkl"), pattern_cache=cache)
    a.solve(W_SMALL)
    b.solve(W_SMALL)
    assert cache.misses == 1
    assert a.pattern_cache is b.pattern_cache


def test_every_symbolic_analysis_goes_through_the_session_cache():
    """One sparse path: no solver of a session analyses outside its cache."""
    from repro.sparse.cache import global_pattern_cache

    global_pattern_cache().clear()
    session = Session(SolverSpec(approach="expl mkl"))
    solution = session.solve(W_SMALL)
    assert solution.converged
    cache = session.pattern_cache
    assert cache.misses >= 1
    assert cache.hits + cache.misses == session.problem(W_SMALL).n_subdomains
    assert len(global_pattern_cache()) == 0


def test_session_spec_accepts_preset_names():
    session = Session("cpu-explicit")
    assert session.spec == SolverSpec.from_preset("cpu-explicit")


def test_autotune_returns_ranked_configurations():
    from repro.feti.config import CudaLibraryVersion

    session = Session(SolverSpec(threads_per_cluster=2, streams_per_cluster=2))
    results = session.autotune("heat-2d-quick", CudaLibraryVersion.MODERN)
    assert len(results) > 1
    times = [m.preprocessing_seconds + m.application_seconds for m in results]
    assert times == sorted(times)


def test_cache_stats_report_coarse_problem_counters():
    """PR 8: per-solve coarse timing surfaces through Session.cache_stats."""
    multi = Workload("heat", 2, (4, 4), 3, n_clusters=4)
    with Session(SolverSpec(approach="expl mkl")) as session:
        result = session.solve(multi)
        assert result.converged
        stats = session.cache_stats()
    assert stats["coarse_solves"] >= 2  # lambda_0 and alpha at minimum
    assert stats["coarse_applies"] >= 1
    assert stats["coarse_seconds"] > 0.0


def test_cache_stats_coarse_counters_zero_before_any_solve():
    with Session(SolverSpec()) as session:
        stats = session.cache_stats()
    assert stats["coarse_applies"] == 0
    assert stats["coarse_solves"] == 0
    assert stats["coarse_seconds"] == 0.0
    assert "hierarchical_projectors" not in stats
