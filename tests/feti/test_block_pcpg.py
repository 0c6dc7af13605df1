"""Block (multi-RHS) PCPG: lockstep agreement with sequential solves.

With block forms that apply their columns one by one,
:func:`repro.feti.pcpg.pcpg_block` must be **bitwise** equal to running the
scalar solver once per right-hand side; the solver's fused GEMM apply
trades that for one kernel per iteration at tiny (iteration-amplified)
rounding differences.  The convergence mask must let columns finish
independently.
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
        # One scalar (GEMV) apply per contiguous column — a fused GEMM
        # would round differently and break bitwise equality.
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
def _assert_close_to_sequential(many, sequential) -> None:
    """Fused block columns (``λ`` and primal) within 1e-9 relative,
    iterations within ±1."""
    for block_sol, ref in zip(many, sequential):
        assert block_sol.converged
        for got, want in [
            (block_sol.lam, ref.lam),
            (np.concatenate(block_sol.primal), np.concatenate(ref.primal)),
        ]:
            assert np.linalg.norm(got - want) <= 1e-9 * max(np.linalg.norm(want), 1e-300)
        assert abs(block_sol.iterations - ref.iterations) <= 1


@pytest.mark.parametrize(
    "workload",
    [HEAT, ELASTICITY, Workload("heat", 3, (2, 2, 1), 12)],
    ids=["heat", "elasticity", "heat3d"],
)
def test_solve_many_is_within_1e9_of_sequential(workload):
    with Session(SolverSpec(approach="expl mkl")) as session:
        loads = _scaled_loads(session, workload, [1.0, 1.5, 0.25])
        many = session.solve_many(workload, loads)
        sequential = [session.solve_request(workload, rhs=s) for s in (1.0, 1.5, 0.25)]
    _assert_close_to_sequential(many, sequential)


@pytest.mark.parametrize("approach", APPROACHES)
def test_solve_many_all_approaches_close_to_sequential(approach):
    """Block-PCPG vs sequential solves across every Table-III approach.

    The explicit approaches fuse the columns into one GEMM per pack and
    large block (within 1e-9, iterations ±1); the implicit ones apply the
    columns one by one, and the block projector and preconditioner are
    bitwise per-column, so their columns are the sequential solves bitwise.
    """
    with Session(SolverSpec(approach=approach)) as session:
        ref = session.solve(HEAT)
        many = session.solve_many(HEAT, [None, None])
    _assert_close_to_sequential(many, [ref, ref])
    if approach.startswith("impl"):
        for sol in many:
            assert np.array_equal(sol.lam, ref.lam)
            assert sol.iterations == ref.iterations


def test_solve_many_is_reproducible_bitwise():
    """The fused kernels are deterministic: the same block twice, the same bits."""
    with Session(SolverSpec(approach="expl mkl")) as session:
        loads = _scaled_loads(session, HEAT, [1.0, 2.0])
        first = session.solve_many(HEAT, loads)
        second = session.solve_many(HEAT, loads)
    for a, b in zip(first, second):
        assert np.array_equal(a.lam, b.lam)
        assert a.iterations == b.iterations


def test_solve_many_writes_no_loads():
    """The columns' loads are arguments: every subdomain keeps its ``f``
    array, with its values."""
    with Session() as session:
        solver = session.solver(HEAT)
        before = [(sub.f, sub.f.copy()) for sub in solver.problem.subdomains]
        loads = _scaled_loads(session, HEAT, [3.0, 5.0])
        solver.solve_many(loads)
        for sub, (f, values) in zip(solver.problem.subdomains, before):
            assert sub.f is f
            assert np.array_equal(f, values)


def test_a_mis_shaped_load_column_fails_before_the_solve():
    """One entry of subdomain 1's load moved into subdomain 0: a named
    ``ValueError`` before any preprocessing, and the session unharmed."""
    workload = Workload("heat", 2, (2, 2), 4)
    with Session() as session:
        before = session.solve(workload)
        base = session.base_loads(workload)
        loads = [f.copy() for f in base]
        loads[0] = np.append(loads[0], loads[1][-1])
        loads[1] = loads[1][:-1]
        with pytest.raises(
            ValueError, match=rf"subdomain 0 has shape .*expected \({base[0].size},\)"
        ):
            session.solve_many(workload, [None, loads])
        after = session.solve(workload)
    assert after.lam.tobytes() == before.lam.tobytes()
    assert after.iterations == before.iterations


def test_a_mis_shaped_load_column_is_rejected_before_preprocessing():
    with Session() as session:
        solver = session.solver(HEAT)
        loads = [f.copy() for f in session.base_loads(HEAT)]
        loads[2] = loads[2][:-1]
        with pytest.raises(ValueError, match="subdomain 2"):
            solver.solve_many([loads])
        assert not solver.operator.preprocessed


def test_session_solve_many_counts_stacked_stats():
    with Session() as session:
        solutions = session.solve_many(HEAT, [None, None, None])
        assert len(solutions) == 3
        stats = session.cache_stats()
        assert stats["stacked_solves"] == 1
        assert stats["stacked_columns"] == 3
        assert stats["solves"] == 3


def test_a_rejected_solve_many_counts_no_solves():
    """The solve counters move only once a block solve has returned."""
    workload = Workload("heat", 2, (2, 2), 4)
    counters = ("solves", "stacked_solves", "stacked_columns")
    with Session() as session:
        loads = [f.copy() for f in session.base_loads(workload)]
        loads[0] = loads[0][:-1]
        before = {name: session.cache_stats()[name] for name in counters}
        with pytest.raises(ValueError, match="subdomain 0"):
            session.solve_many(workload, [None, loads])
        assert {name: session.cache_stats()[name] for name in counters} == before


def _per_column(apply):
    """The block form of a vector callable: one call per contiguous column."""
    return lambda X: np.column_stack(
        [apply(np.ascontiguousarray(X[:, j])) for j in range(X.shape[1])]
    )


def test_per_column_block_forms_are_bitwise_scalar_pcpg():
    """Non-trivial ``P`` and ``M`` applied column by column: the block
    iterates are the scalar solver's, bit for bit."""
    n, k = 24, 3
    F = _random_spd(n, 21)
    rng = np.random.default_rng(22)
    Q, _ = np.linalg.qr(rng.standard_normal((n, 4)))
    P = np.eye(n) - Q @ Q.T
    M = np.diag(rng.uniform(0.5, 2.0, n))
    ds = [P @ rng.standard_normal(n) for _ in range(k)]
    l0s = [np.zeros(n) for _ in range(k)]
    F_vec, P_vec, M_vec = (lambda x: F @ x), (lambda x: P @ x), (lambda x: M @ x)

    scalar = [pcpg(F_vec, P_vec, M_vec, d, l0, tolerance=1e-10) for d, l0 in zip(ds, l0s)]
    blocked = pcpg_block(
        _per_column(F_vec), _per_column(P_vec), _per_column(M_vec), ds, l0s, tolerance=1e-10
    )
    for ref, blk in zip(scalar, blocked):
        assert blk.iterations == ref.iterations > 0
        assert np.array_equal(blk.lam, ref.lam)
        assert blk.residual_norms == ref.residual_norms


def test_real_projector_block_is_bitwise_scalar_pcpg():
    """The solver's wiring: the Projector's apply_block feeding pcpg_block
    reproduces scalar PCPG with per-column projector applies bitwise."""
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
    F_vec = lambda x: F @ x

    scalar = [
        pcpg(F_vec, projector.apply, ident, d, l0, tolerance=1e-8) for d, l0 in zip(ds, l0s)
    ]
    blocked = pcpg_block(
        _per_column(F_vec), projector.apply_block, ident, ds, l0s, tolerance=1e-8
    )
    for ref, blk in zip(scalar, blocked):
        assert blk.iterations == ref.iterations
        assert np.array_equal(blk.lam, ref.lam)
