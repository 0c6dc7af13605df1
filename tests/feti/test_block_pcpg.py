"""Block (multi-RHS) PCPG: lockstep equality with sequential solves.

The per-column-apply mode of :func:`repro.feti.pcpg.pcpg_block` must be
**bitwise** equal to running the scalar solver once per right-hand side;
the stacked GEMM mode trades that for fused kernels at tiny (iteration-
amplified) rounding differences.  The convergence mask must let columns
finish independently.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Session, SolverSpec, Workload
from repro.feti.pcpg import pcpg, pcpg_block

APPROACHES = [
    "impl mkl",
    "impl cholmod",
    "impl legacy",
    "impl modern",
    "expl mkl",
    "expl cholmod",
    "expl legacy",
    "expl modern",
    "expl hybrid",
]

HEAT = Workload("heat", 2, (3, 3), 6)
ELASTICITY = Workload("elasticity", 2, (3, 3), 4)


def _scaled_loads(session, workload, factors):
    base = session.base_loads(workload)
    return [[s * f for f in base] for s in factors]


# --------------------------------------------------------------------- #
# Algebra-level: synthetic SPD block problems                            #
# --------------------------------------------------------------------- #
def _random_spd(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    return A @ A.T + n * np.eye(n)


def test_block_matches_scalar_bitwise_on_synthetic_problem():
    n, k = 24, 3
    F = _random_spd(n, 7)
    rng = np.random.default_rng(11)
    ds = [rng.standard_normal(n) for _ in range(k)]
    l0s = [np.zeros(n) for _ in range(k)]
    ident = lambda x: x

    scalar = [
        pcpg(lambda v: F @ v, ident, ident, d, l0, tolerance=1e-10)
        for d, l0 in zip(ds, l0s)
    ]

    def apply_per_column(B):
        # Mirror of the default DualOperatorBase.apply_multi: one scalar
        # (GEMV) apply per contiguous column — a fused GEMM would round
        # differently and break bitwise equality.
        return np.column_stack([F @ np.ascontiguousarray(B[:, j]) for j in range(B.shape[1])])

    block = pcpg_block(apply_per_column, ident, ident, ds, l0s, tolerance=1e-10)
    for s, b in zip(scalar, block):
        assert np.array_equal(s.lam, b.lam)
        assert s.iterations == b.iterations
        assert s.converged and b.converged
        assert s.residual_norms == b.residual_norms
        assert np.array_equal(s.final_residual, b.final_residual)
        assert s.condition_estimate == b.condition_estimate > 1.0


def test_columns_converge_independently():
    """A well-conditioned column must not keep iterating because a slow one
    is still active, and vice versa."""
    n = 30
    easy = np.eye(n)  # converges in one iteration
    hard = _random_spd(n, 3)
    hard += np.diag(np.linspace(0, 50.0, n))  # spread spectrum
    F = np.zeros((2 * n, 2 * n))
    F[:n, :n] = easy
    F[n:, n:] = hard
    rng = np.random.default_rng(5)
    d_easy = np.concatenate([rng.standard_normal(n), np.zeros(n)])
    d_hard = np.concatenate([np.zeros(n), rng.standard_normal(n)])
    ident = lambda x: x

    applied_widths = []

    def apply_block(B):
        applied_widths.append(B.shape[1])
        return F @ B

    results = pcpg_block(
        apply_block, ident, ident, [d_easy, d_hard], [np.zeros(2 * n)] * 2,
        tolerance=1e-10,
    )
    assert all(r.converged for r in results)
    assert results[0].iterations < results[1].iterations
    # After the easy column converged, later block applies carry only the
    # hard column: the mask shrinks the block.
    assert applied_widths[0] == 2  # initial residual
    assert applied_widths[-1] == 1


def test_breakdown_fails_only_its_own_column():
    """pq <= 0 (indefinite operator) stops that column, the other finishes."""
    n = 16
    good = _random_spd(n, 1)
    bad = -np.eye(n)  # negative definite: pq < 0 on the first iteration
    F = np.zeros((2 * n, 2 * n))
    F[:n, :n] = good
    F[n:, n:] = bad
    rng = np.random.default_rng(9)
    d_good = np.concatenate([rng.standard_normal(n), np.zeros(n)])
    d_bad = np.concatenate([np.zeros(n), rng.standard_normal(n)])
    ident = lambda x: x

    results = pcpg_block(
        lambda B: F @ B, ident, ident, [d_good, d_bad], [np.zeros(2 * n)] * 2,
        tolerance=1e-10,
    )
    assert results[0].converged
    assert not results[1].converged


def test_zero_rhs_column_converges_immediately():
    n = 12
    F = _random_spd(n, 2)
    rng = np.random.default_rng(4)
    ident = lambda x: x
    results = pcpg_block(
        lambda B: F @ B,
        ident,
        ident,
        [np.zeros(n), rng.standard_normal(n)],
        [np.zeros(n)] * 2,
        tolerance=1e-10,
    )
    assert results[0].converged and results[0].iterations == 0
    assert results[1].converged and results[1].iterations > 0


def test_mismatched_column_counts_raise():
    with pytest.raises(ValueError, match="initial iterates"):
        pcpg_block(
            lambda B: B, lambda x: x, lambda x: x, [np.zeros(3)], []
        )


def test_empty_block_returns_empty():
    assert pcpg_block(lambda B: B, lambda x: x, lambda x: x, [], []) == []


# --------------------------------------------------------------------- #
# Solver-level: solve_many vs sequential solves                          #
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("workload", [HEAT, ELASTICITY], ids=["heat", "elasticity"])
def test_solve_many_default_is_bitwise_equal_to_sequential(workload):
    with Session(SolverSpec(approach="expl mkl")) as session:
        solver = session.solver(workload)
        solver.preprocess()
        loads = _scaled_loads(session, workload, [1.0, 1.5, 0.25])
        many = solver.solve_many(loads, reuse_preprocessing=True)
        for cols, block_sol in zip(loads, many):
            for sub, f in zip(solver.problem.subdomains, cols):
                sub.f = f
            ref = solver.solve(reuse_preprocessing=True)
            assert np.array_equal(block_sol.lam, ref.lam)
            assert np.array_equal(block_sol.alpha, ref.alpha)
            for a, b in zip(block_sol.primal, ref.primal):
                assert np.array_equal(a, b)
            assert block_sol.iterations == ref.iterations
        base = session.base_loads(workload)
        for sub, f in zip(solver.problem.subdomains, base):
            sub.f = f.copy()


@pytest.mark.parametrize("approach", APPROACHES)
def test_solve_many_all_approaches_within_1e12_per_column(approach):
    """Block-PCPG vs N sequential solves across every Table-III approach.

    The default per-column path is exactly sequential; the assertion is the
    issue's 1e-12 bound, met with zero slack.
    """
    with Session(SolverSpec(approach=approach)) as session:
        ref = session.solve(HEAT)
        solver = session.solver(HEAT)
        many = solver.solve_many([None, None], reuse_preprocessing=True)
        for sol in many:
            denom = np.linalg.norm(ref.lam)
            assert np.linalg.norm(sol.lam - ref.lam) <= 1e-12 * max(denom, 1.0)
            assert sol.iterations == ref.iterations


def test_solve_many_stacked_matches_per_column_closely():
    with Session(SolverSpec(approach="expl mkl")) as session:
        solver = session.solver(HEAT)
        solver.preprocess()
        loads = _scaled_loads(session, HEAT, [1.0, 2.0])
        plain = solver.solve_many(loads, reuse_preprocessing=True)
        stacked = solver.solve_many(loads, stacked=True, reuse_preprocessing=True)
        for a, b in zip(plain, stacked):
            denom = max(np.linalg.norm(a.lam), 1e-300)
            assert np.linalg.norm(b.lam - a.lam) / denom <= 1e-9
            assert b.converged


def test_solve_many_restores_pristine_loads():
    with Session() as session:
        solver = session.solver(HEAT)
        before = [sub.f.copy() for sub in solver.problem.subdomains]
        loads = _scaled_loads(session, HEAT, [3.0, 5.0])
        solver.solve_many(loads)
        for sub, f in zip(solver.problem.subdomains, before):
            assert np.array_equal(sub.f, f)


def test_session_solve_many_counts_stacked_stats():
    with Session() as session:
        solutions = session.solve_many(HEAT, [None, None, None])
        assert len(solutions) == 3
        stats = session.cache_stats()
        assert stats["stacked_solves"] == 1
        assert stats["stacked_columns"] == 3
        assert stats["solves"] == 3


def test_block_projection_kwargs_are_bitwise_equal_to_per_column():
    """pcpg_block with apply_P_block/apply_M_block (stacked per-column
    applies, as the solver wires the projector and preconditioner) must be
    bitwise identical to the per-column default path."""
    n, k = 24, 3
    F = _random_spd(n, 21)
    rng = np.random.default_rng(22)
    ds = [rng.standard_normal(n) for _ in range(k)]
    l0s = [np.zeros(n) for _ in range(k)]
    ident = lambda x: x

    def ident_block(X):
        return np.column_stack([np.asarray(X[:, j]) for j in range(X.shape[1])])

    reference = pcpg_block(lambda X: F @ X, ident, ident, ds, l0s, tolerance=1e-10)
    blocked = pcpg_block(
        lambda X: F @ X,
        ident,
        ident,
        ds,
        l0s,
        tolerance=1e-10,
        apply_P_block=ident_block,
        apply_M_block=ident_block,
    )
    for ref, blk in zip(reference, blocked):
        assert blk.iterations == ref.iterations
        assert np.array_equal(blk.lam, ref.lam)


def test_block_projection_kwargs_with_real_projector():
    """The solver's wiring: the Projector's apply_block feeding pcpg_block
    reproduces the per-column projector applies bitwise."""
    from repro.api.workload import build_problem
    from repro.feti.projector import build_projector

    problem = build_problem(Workload("heat", 2, (4, 4), 3, n_clusters=4))
    projector = build_projector(problem)
    n = problem.n_lambda
    F = _random_spd(n, 23)
    rng = np.random.default_rng(24)
    ds = [rng.standard_normal(n) for _ in range(2)]
    l0s = [np.zeros(n) for _ in range(2)]
    ident = lambda x: x

    reference = pcpg_block(
        lambda X: F @ X, projector.apply, ident, ds, l0s, tolerance=1e-8
    )
    blocked = pcpg_block(
        lambda X: F @ X,
        projector.apply,
        ident,
        ds,
        l0s,
        tolerance=1e-8,
        apply_P_block=projector.apply_block,
    )
    for ref, blk in zip(reference, blocked):
        assert blk.iterations == ref.iterations
        assert np.array_equal(blk.lam, ref.lam)
