"""FETI scalability ladder: iterations and ``κ`` against ``H/h`` and subdomain count.

FETI theory promises, for the Dirichlet preconditioner with a correctly
scaled jump operator, ``κ(P M P F) ≤ C (1 + log(H/h))²``: polylogarithmic
growth in the subdomain size ``H/h`` and *none* in the number of subdomains.
This script climbs both ladders — ``cells`` 8 / 16 / 32 on a ``(4,4)`` grid,
then ``(4,4)`` / ``(8,8)`` / ``(16,16)`` subdomains of 8 cells — for heat
transfer and linear elasticity in 2D, under all three preconditioners, and
prints the PCPG iteration count next to the Lanczos estimate of ``κ`` every
solve carries (``PcpgResult.condition_estimate``).

The output is a Markdown table (the nightly workflow appends it to the step
summary).  The exit status is non-zero if ``dirichlet ≤ lumped ≤ none`` breaks
on any rung or the Dirichlet count grows by more than 3 across subdomain
counts.

Run with:  python examples/scalability_ladder.py
"""

from __future__ import annotations

import sys

from repro.api import Session, SolverSpec, Workload

KINDS = ("none", "lumped", "dirichlet")
CELLS_LADDER = [((4, 4), cells) for cells in (8, 16, 32)]
SUBDOMAIN_LADDER = [(grid, 8) for grid in ((4, 4), (8, 8), (16, 16))]
#: Dirichlet iterations may differ by this much between subdomain counts.
FLATNESS = 3


def climb(session: Session, physics: str, rungs: list) -> list[dict[str, tuple[int, float]]]:
    """Solve every rung under every preconditioner; print one table row each."""
    results = []
    for grid, cells in rungs:
        workload = Workload(physics=physics, dim=2, subdomains=grid, cells=cells)
        row = {}
        for kind in KINDS:
            solution = session.solve(workload, SolverSpec(approach="expl mkl", preconditioner=kind))
            if not solution.converged:
                sys.exit(f"{workload.describe()} did not converge under {kind!r}")
            row[kind] = (solution.iterations, solution.pcpg.condition_estimate)
        cells_text = " | ".join(f"{its} | {kappa:.2f}" for its, kappa in row.values())
        print(f"| {physics} | {grid[0]}x{grid[1]} | {cells} | {cells_text} |")
        results.append(row)
    return results


def main() -> int:
    failures = []
    print("### FETI scalability ladder (PCPG iterations and κ estimate)\n")
    print("| physics | subdomains | H/h | none | κ | lumped | κ | dirichlet | κ |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    for physics in ("heat", "elasticity"):
        with Session() as session:
            by_cells = climb(session, physics, CELLS_LADDER)
            by_subdomains = climb(session, physics, SUBDOMAIN_LADDER)
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
