"""FETI theory at realistic sizes: iteration counts and ``κ`` follow the bounds.

With the non-redundant scaling ``B_D`` the preconditioners must order
``dirichlet ≤ lumped ≤ none`` everywhere, and the Dirichlet preconditioner
must show the textbook behaviour ``κ(P M P F) ≤ C (1 + log(H/h))²``:
polylogarithmic in the subdomain size ``H/h``, independent of the number of
subdomains.  Both are asserted on the iteration counts *and* on the Lanczos
estimate of ``κ`` the solve carries, and every answer is checked against the
independent saddle-point solve.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Session, SolverSpec, Workload
from repro.feti.solver import FetiSolver

KINDS = ("none", "lumped", "dirichlet")

HEAT_2D_BY_CELLS = {cells: Workload("heat", 2, (4, 4), cells) for cells in (8, 16, 32)}
HEAT_2D_BY_SUBDOMAINS = [
    HEAT_2D_BY_CELLS[8],
    Workload("heat", 2, (8, 8), 8, n_clusters=4),
    Workload("heat", 2, (16, 16), 8),
]
HEAT_3D = Workload("heat", 3, (2, 2, 1), 12)
ELASTICITY_2D = Workload("elasticity", 2, (4, 4), 8)
ELASTICITY_3D = Workload("elasticity", 3, (3, 3, 3), 4)
WORKLOADS = [
    *HEAT_2D_BY_CELLS.values(),
    *HEAT_2D_BY_SUBDOMAINS[1:],
    HEAT_3D,
    Workload("heat", 3, (3, 3, 3), 4),
    ELASTICITY_2D,
    ELASTICITY_3D,
]


@pytest.fixture(scope="module")
def sessions():
    """One session per physics: every preconditioner kind of a workload
    shares its problem, and same-shaped subdomains their symbolic analyses."""
    with Session() as heat, Session() as elasticity:
        yield {"heat": heat, "elasticity": elasticity}


@pytest.fixture(scope="module")
def solve(sessions):
    """``solve(workload, kind)``, each pair solved once per module."""
    solutions = {}

    def solve(workload: Workload, kind: str):
        if (workload, kind) not in solutions:
            spec = SolverSpec(approach="expl mkl", preconditioner=kind)
            solutions[workload, kind] = sessions[workload.physics].solve(workload, spec)
        return solutions[workload, kind]

    return solve


@pytest.mark.parametrize("workload", WORKLOADS, ids=Workload.describe)
def test_preconditioners_are_ordered(solve, workload):
    none, lumped, dirichlet = (solve(workload, kind) for kind in KINDS)
    assert none.converged and lumped.converged and dirichlet.converged
    assert dirichlet.iterations <= lumped.iterations <= none.iterations
    kappa = [s.pcpg.condition_estimate for s in (none, lumped, dirichlet)]
    assert kappa[2] <= kappa[1] <= kappa[0]


def test_dirichlet_grows_polylogarithmically_in_subdomain_size(solve):
    """``H/h`` 8 → 16 → 32: no faster than ``(1 + log(H/h))²``."""
    base = solve(HEAT_2D_BY_CELLS[8], "dirichlet")
    for cells in (16, 32):
        bound = ((1.0 + np.log(cells)) / (1.0 + np.log(8))) ** 2
        solution = solve(HEAT_2D_BY_CELLS[cells], "dirichlet")
        assert solution.iterations <= bound * base.iterations
        assert solution.pcpg.condition_estimate <= bound * base.pcpg.condition_estimate
    # ... while the unpreconditioned operator's κ grows like H/h.
    none = [solve(HEAT_2D_BY_CELLS[c], "none").pcpg.condition_estimate for c in (8, 32)]
    assert none[1] > 3.0 * none[0]


def test_dirichlet_is_flat_in_the_number_of_subdomains(solve):
    """16 → 64 → 256 subdomains at fixed ``H/h``: numerical scalability."""
    solutions = [solve(w, "dirichlet") for w in HEAT_2D_BY_SUBDOMAINS]
    iterations = [s.iterations for s in solutions]
    kappa = [s.pcpg.condition_estimate for s in solutions]
    assert max(iterations) - min(iterations) <= 2
    assert max(kappa) <= 1.1 * min(kappa)


def test_elasticity_3d_converges_under_every_preconditioner(solve):
    """The one outright failure of the multiplicity-only scaling."""
    budget = {"none": 120, "lumped": 30, "dirichlet": 30}
    for kind in KINDS:
        solution = solve(ELASTICITY_3D, kind)
        assert solution.converged
        assert solution.iterations <= budget[kind]


@pytest.mark.parametrize(
    "workload",
    [HEAT_2D_BY_SUBDOMAINS[1], HEAT_3D, ELASTICITY_2D, ELASTICITY_3D],
    ids=Workload.describe,
)
def test_preconditioned_solves_meet_the_saddle_point_oracle(sessions, solve, workload):
    u_ref, _ = sessions[workload.physics].problem(workload).saddle_point_solution()
    for kind in ("lumped", "dirichlet"):
        u = np.concatenate(solve(workload, kind).primal)
        assert np.linalg.norm(u - u_ref) <= 1e-8 * np.linalg.norm(u_ref)


@pytest.mark.parametrize("kind", KINDS)
def test_condition_estimate_matches_the_dense_operator(heat_problem_2d, kind):
    """Converged estimate vs ``κ`` of the dense ``P M P F`` on ``range(P)``."""
    solver = FetiSolver(heat_problem_2d, SolverSpec(preconditioner=kind, tolerance=1e-12))
    solution = solver.solve()
    assert solution.converged
    identity = np.eye(heat_problem_2d.n_lambda)
    F, P, M = (
        np.column_stack([apply(column) for column in identity])
        for apply in (solver.operator.apply, solver.projector.apply, solver.preconditioner.apply)
    )
    eigenvalues, eigenvectors = np.linalg.eigh(P)
    Q = eigenvectors[:, eigenvalues > 0.5]  # orthonormal basis of range(P)
    spectrum = np.linalg.eigvals((Q.T @ M @ Q) @ (Q.T @ F @ Q)).real
    kappa = spectrum.max() / spectrum.min()
    assert solution.convergence.condition_estimate == pytest.approx(kappa, rel=0.1)
