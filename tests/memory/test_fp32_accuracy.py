"""The fp32 accuracy gate across all backends.

Every registry approach must converge under ``precision="fp32"`` in the
iterations fp64 needs, to a true residual ``‖P (d − F λ)‖`` within 1e-5 of
``‖P d‖``.  Residuals are measured against an *independent fp64 reference
operator* — a reduced-precision solver's own operator is made of the same
rounded factors it iterated on, so self-measured residuals are meaningless.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Session, SolverSpec, Workload
from repro.feti.config import DualOperatorApproach

W = Workload("heat", 2, (2, 2), 5)

APPROACHES = [a.value for a in DualOperatorApproach]

#: Ceiling on ``‖P (d − F λ)‖ / ‖P d‖`` of an fp32 solve (measured 8.7e-8
#: implicit, 3.3e-7 explicit: the ~1e-7 rounding of the stored entries).
FP32_RELATIVE_RESIDUAL = 1e-5


def _true_residual(ref_solver, lam: np.ndarray) -> float:
    d = ref_solver.operator.dual_rhs()
    r = d - ref_solver.operator.apply(lam)
    return float(np.linalg.norm(ref_solver.projector.apply(r)))


@pytest.mark.parametrize("approach", APPROACHES)
def test_fp32_converges_in_fp64_iterations_to_its_storage_rounding(approach):
    with Session(SolverSpec(approach=approach)) as ref_session:
        ref_solution = ref_session.solve(W)
        ref_solver = ref_session.solver(W)
        assert ref_solution.converged
        d = ref_solver.operator.dual_rhs()
        norm_pd = float(np.linalg.norm(ref_solver.projector.apply(d)))

        with Session(SolverSpec(approach=approach, precision="fp32")) as fp32_session:
            fp32_solution = fp32_session.solve(W)
        fp32_res = _true_residual(ref_solver, fp32_solution.lam)

    assert fp32_solution.converged
    assert fp32_solution.iterations == ref_solution.iterations
    assert fp32_res <= FP32_RELATIVE_RESIDUAL * norm_pd, (
        f"{approach}: fp32 true residual {fp32_res:.3e} vs ‖P d‖ {norm_pd:.3e}"
    )


#: Other physics and dimensions, each under one explicit and one implicit
#: approach (measured ≤ 1.3e-6 relative, fp64's iteration count on all six).
PHYSICS = {
    "elasticity-2d": Workload("elasticity", 2, (2, 2), 4),
    "heat-3d": Workload("heat", 3, (2, 2, 1), 3),
    "elasticity-3d": Workload("elasticity", 3, (2, 2, 1), 2),
}


@pytest.mark.parametrize("approach", ["expl mkl", "impl mkl"])
@pytest.mark.parametrize("name", PHYSICS)
def test_fp32_holds_fp64_iterations_across_physics(name, approach):
    workload = PHYSICS[name]
    with Session(SolverSpec(approach=approach)) as ref_session:
        ref_solution = ref_session.solve(workload)
        ref_solver = ref_session.solver(workload)
        d = ref_solver.operator.dual_rhs()
        norm_pd = float(np.linalg.norm(ref_solver.projector.apply(d)))
        with Session(SolverSpec(approach=approach, precision="fp32")) as fp32_session:
            fp32_solution = fp32_session.solve(workload)
        fp32_res = _true_residual(ref_solver, fp32_solution.lam)

    assert fp32_solution.converged
    assert fp32_solution.iterations == ref_solution.iterations
    assert fp32_res <= FP32_RELATIVE_RESIDUAL * norm_pd


def test_fp32_block_solve_keeps_every_column_at_fp64_iterations():
    """``solve_many`` under fp32: each column as accurate as a single fp32 solve."""
    rng = np.random.default_rng(11)
    with Session(SolverSpec(approach="expl mkl")) as session:
        problem = session.problem(W)
        columns = [
            [rng.standard_normal(sub.ndofs) for sub in problem.subdomains] for _ in range(3)
        ]
        ref = session.solve_many(W, columns)
    with Session(SolverSpec(approach="expl mkl", precision="fp32")) as session:
        got = session.solve_many(W, columns)
    assert len(got) == len(ref) == 3
    for fp32, fp64 in zip(got, ref):
        assert fp32.converged and fp64.converged
        assert fp32.iterations == fp64.iterations
        u32, u64 = np.concatenate(fp32.primal), np.concatenate(fp64.primal)
        assert 0.0 < np.abs(u32 - u64).max() <= 1e-4 * np.abs(u64).max()


def test_fp32_stalls_above_fp64_level():
    """The control: rounded factors cannot reach fp64 residuals (otherwise
    the independent reference operator above measures nothing)."""
    approach = "expl mkl"
    with Session(SolverSpec(approach=approach)) as ref_session:
        ref_solution = ref_session.solve(W)
        ref_solver = ref_session.solver(W)
        fp64_res = _true_residual(ref_solver, ref_solution.lam)

        with Session(SolverSpec(approach=approach, precision="fp32")) as fp32_session:
            fp32_solution = fp32_session.solve(W)
        fp32_res = _true_residual(ref_solver, fp32_solution.lam)

    assert fp32_res > 100.0 * max(fp64_res, 1e-16)
