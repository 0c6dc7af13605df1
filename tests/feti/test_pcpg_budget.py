"""The calls one PCPG loop makes, and its one-column solves against the scalar loop.

:func:`repro.feti.pcpg.pcpg` is Algorithm 1 written once for one column or
many.  A one-column solve applies ``F``, ``P`` and ``M`` through the bound
vector methods (``apply``) and never a block one; a solve of several
columns applies every lockstep iteration's active columns through one
block call each (``apply_multi`` / ``apply_block``) and never a vector
one.  The counts are read from the instances' bound methods, shadowed the
way the wall-clock harness shadows them.  A one-column ``Session.solve``
is also the scalar loop of ``tests/oracles/pcpg.py``, bit for bit, when
both are driven by the same operators.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.api import Session, SolverSpec, Workload
from tests.oracles.pcpg import pcpg as scalar_pcpg

HEAT = Workload("heat", 2, (4, 4), 4, n_clusters=2)

#: The instances' methods the loop may call, per role.
_METHODS = {
    "operator": ("apply", "apply_multi"),
    "projector": ("apply", "apply_block"),
    "preconditioner": ("apply", "apply_block"),
}


def _count_calls(solver) -> tuple[Counter, list[int]]:
    """Shadow the loop's bound methods on ``solver``'s instances.

    Returns the call counter (keys ``"<role>.<method>"``) and the column
    count of every ``operator.apply_multi`` call, in order.
    """
    calls: Counter[str] = Counter()
    widths: list[int] = []
    for role, methods in _METHODS.items():
        target = getattr(solver, role)
        for name in methods:
            bound = getattr(target, name)

            def counted(x, bound=bound, key=f"{role}.{name}"):
                calls[key] += 1
                if key == "operator.apply_multi":
                    widths.append(x.shape[1])
                return bound(x)

            setattr(target, name, counted)
    return calls, widths


@pytest.mark.parametrize("approach", ["expl mkl", "impl mkl"])
def test_a_one_column_solve_makes_only_vector_calls(approach):
    with Session(SolverSpec(approach=approach), memory_budget="unlimited") as session:
        session.solve(HEAT)
        calls, _ = _count_calls(session.solver(HEAT))
        solution = session.solve(HEAT)
    steps = solution.iterations + 1
    assert solution.converged and solution.iterations > 0
    assert calls == Counter(
        {"operator.apply": steps, "projector.apply": 2 * steps, "preconditioner.apply": steps}
    )


@pytest.mark.parametrize("approach", ["expl mkl", "impl mkl"])
def test_a_three_column_solve_makes_one_block_call_per_lockstep_iteration(approach):
    """Columns of unlike loads finish at unlike iterations (zero loads at
    the start): every block apply carries the columns still active, and a
    vector apply never runs."""
    with Session(SolverSpec(approach=approach), memory_budget="unlimited") as session:
        base = session.base_loads(HEAT)
        rng = np.random.default_rng(3)
        loads = [None, [0.0 * f for f in base], [rng.standard_normal(f.shape) for f in base]]
        session.solve(HEAT)
        calls, widths = _count_calls(session.solver(HEAT))
        solutions = session.solve_many(HEAT, loads)
    iterations = [solution.iterations for solution in solutions]
    assert all(solution.converged for solution in solutions)
    assert len(set(iterations)) > 1
    steps = max(iterations) + 1
    assert calls == Counter(
        {
            "operator.apply_multi": steps,
            "projector.apply_block": 2 * steps,
            "preconditioner.apply_block": steps,
        }
    )
    assert widths == [3] + [sum(it >= k for it in iterations) for k in range(1, steps)]


@pytest.mark.parametrize(
    "workload, spec",
    [
        (
            Workload("heat", 2, (8, 8), 8, n_clusters=4),
            SolverSpec(approach="expl modern", assembly="table2"),
        ),
        (Workload("heat", 3, (2, 2, 1), 12), SolverSpec(approach="impl mkl")),
    ],
    ids=["heat2d_warm_solve", "heat3d_x12_impl_mkl"],
)
def test_a_session_solve_is_the_scalar_loop_bitwise(workload, spec):
    with Session(spec, memory_budget="unlimited") as session:
        solution = session.solve(workload)
        solver = session.solver(workload)
        operator, projector = solver.operator, solver.projector
        reference = scalar_pcpg(
            operator.apply,
            projector.apply,
            solver.preconditioner.apply,
            operator.dual_rhs(None),
            projector.initial_lambda(solver.problem.compute_e(None)),
            tolerance=spec.tolerance,
            max_iterations=spec.max_iterations,
            absolute_tolerance=spec.absolute_tolerance,
            residual_history=spec.residual_history,
        )
        alpha = projector.alpha(reference.final_residual)
        primal = operator.primal_solution(reference.lam, alpha, None)
    assert solution.converged and reference.converged
    assert solution.iterations == reference.iterations > 0
    assert solution.lam.tobytes() == reference.lam.tobytes()
    assert solution.pcpg.residual_norms == reference.residual_norms
    assert solution.pcpg.final_residual.tobytes() == reference.final_residual.tobytes()
    assert solution.alpha.tobytes() == alpha.tobytes()
    assert np.concatenate(solution.primal).tobytes() == np.concatenate(primal).tobytes()
