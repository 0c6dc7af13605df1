"""FETI scalability ladder: iterations and ``κ`` against ``H/h`` and subdomain count.

FETI theory promises, for the Dirichlet preconditioner with a correctly
scaled jump operator, ``κ(P M P F) ≤ C (1 + log(H/h))²``: polylogarithmic
growth in the subdomain size ``H/h`` and *none* in the number of subdomains.
This script climbs both ladders — ``cells`` 8 / 16 / 32 on a ``(4,4)`` grid,
then ``(4,4)`` / ``(8,8)`` / ``(16,16)`` subdomains of 8 cells — for heat
transfer and linear elasticity in 2D, under all three preconditioners, and
prints the PCPG iteration count next to the Lanczos estimate of ``κ`` every
solve carries (``PcpgResult.condition_estimate``).  The subdomain rungs also
show the wall milliseconds per subdomain of their first (cold) solve — the
cold path's scaling from 16 to 256 subdomains — and of a problem build
alone (element kernels, scatter, regularization and gluing, timed apart
from the cold solve), and every rung the wall
milliseconds of the Dirichlet preconditioner's build after a preprocessing
(``B_D`` from the gluing chains, its ``Sᵢ`` read off the preprocessed
``F̃ᵢ``; best of three), in total and per subdomain: its cost against the
subdomain size and against the subdomain count.  No timing column is gated.

The output is a Markdown table (the nightly workflow appends it to the step
summary).  The exit status is non-zero if ``dirichlet ≤ lumped ≤ none`` breaks
on any rung or the Dirichlet count grows by more than 3 across subdomain
counts.

Run with:  python examples/scalability_ladder.py
"""

from __future__ import annotations

import sys
import time

from repro.api import Session, SolverSpec, Workload
from repro.api.workload import build_problem
from repro.feti.preconditioner import DirichletPreconditioner

KINDS = ("none", "lumped", "dirichlet")
CELLS_LADDER = [((4, 4), cells) for cells in (8, 16, 32)]
SUBDOMAIN_LADDER = [(grid, 8) for grid in ((4, 4), (8, 8), (16, 16))]
#: Dirichlet iterations may differ by this much between subdomain counts.
FLATNESS = 3


def dirichlet_build_ms(session: Session, workload: Workload, spec: SolverSpec) -> float:
    """Wall milliseconds of a Dirichlet preconditioner's build on a
    preprocessed solver (the ``preconditioner_build`` span of a cold solve),
    best of three."""
    solver = session.solver(workload, spec)
    solver.preprocess()
    times = []
    for _ in range(3):
        start = time.perf_counter()
        DirichletPreconditioner(solver.problem, solver.operator)
        times.append(time.perf_counter() - start)
    return 1e3 * min(times)


def climb(
    session: Session, physics: str, rungs: list, cold_column: bool = False
) -> list[dict[str, tuple[int, float]]]:
    """Solve every rung under every preconditioner; print one table row each.

    With ``cold_column``, the row shows the wall milliseconds per subdomain
    of the rung's first solve, from an empty problem cache (its problem
    build, preparation and preprocessing included), and of one problem
    build timed before it (the cache emptied again after).  Every row ends with the
    wall milliseconds of the Dirichlet preconditioner's build, in total and
    per subdomain.
    """
    results = []
    for grid, cells in rungs:
        workload = Workload(physics=physics, dim=2, subdomains=grid, cells=cells)
        row = {}
        cold_ms = build_ms = None
        if cold_column:
            build_problem.cache_clear()
            start = time.perf_counter()
            build_problem(workload)
            problem_ms = 1e3 * (time.perf_counter() - start) / workload.n_subdomains
            build_problem.cache_clear()
        for kind in KINDS:
            spec = SolverSpec(approach="expl mkl", preconditioner=kind)
            if kind == "dirichlet":  # after the cold solve
                build_ms = dirichlet_build_ms(session, workload, spec)
            start = time.perf_counter()
            solution = session.solve(workload, spec)
            if cold_ms is None:
                cold_ms = 1e3 * (time.perf_counter() - start) / workload.n_subdomains
            if not solution.converged:
                sys.exit(f"{workload.describe()} did not converge under {kind!r}")
            row[kind] = (solution.iterations, solution.pcpg.condition_estimate)
        cells_text = " | ".join(f"{its} | {kappa:.2f}" for its, kappa in row.values())
        cold_text = f"{cold_ms:.3f} | {problem_ms:.3f}" if cold_column else "– | –"
        build_text = f"{build_ms:.2f} | {1e3 * build_ms / workload.n_subdomains:.0f}"
        print(
            f"| {physics} | {grid[0]}x{grid[1]} | {cells} | {cells_text} | {cold_text} | {build_text} |"
        )
        results.append(row)
    return results


def main() -> int:
    failures = []
    print("### FETI scalability ladder (PCPG iterations and κ estimate)\n")
    print(
        "| physics | subdomains | H/h | none | κ | lumped | κ | dirichlet | κ "
        "| cold ms / subdomain | problem build ms / subdomain | dirichlet build ms "
        "| µs / subdomain |"
    )
    print("| --- " * 13 + "|")
    for physics in ("heat", "elasticity"):
        with Session() as session:
            by_cells = climb(session, physics, CELLS_LADDER)
        with Session() as session:  # every subdomain rung starts cold
            by_subdomains = climb(session, physics, SUBDOMAIN_LADDER, cold_column=True)
        for row in by_cells + by_subdomains:
            none, lumped, dirichlet = (row[kind][0] for kind in KINDS)
            if not dirichlet <= lumped <= none:
                failures.append(f"{physics}: ordering broken ({none} / {lumped} / {dirichlet})")
        counts = [row["dirichlet"][0] for row in by_subdomains]
        if max(counts) - min(counts) > FLATNESS:
            failures.append(f"{physics}: dirichlet not flat in subdomain count ({counts})")
    print()
    for failure in failures:
        print(f"FAILED: {failure}")
    if not failures:
        print("dirichlet ≤ lumped ≤ none on every rung; dirichlet flat in the subdomain count.")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
