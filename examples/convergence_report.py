"""Watch PCPG converge: residual history, convergence reports and tracing.

``SolverSpec(residual_history=N)`` opts a solve into per-iteration telemetry:
the solver records the first ``N`` residual norms and attaches a
:class:`~repro.observe.convergence.ConvergenceReport` to the returned
:class:`~repro.feti.solver.FetiSolution`.  This example solves the same
workload at two tolerances, prints both textual reports, compares the three
preconditioners by iteration count and the free Lanczos estimate of
``κ(P M P F)`` every solve carries, then re-runs one solve under a :func:`~repro.observe.trace.trace` context and shows the span
tree the observability layer assembles — the same tree ``repro-bench run
--trace`` writes for every measured grid point.

Run with:  python examples/convergence_report.py
"""

from __future__ import annotations

from repro.api import Session, SolverSpec, Workload
from repro.observe.trace import trace


def print_tree(nodes: list[dict], depth: int = 0, max_children: int = 6) -> None:
    """Render a span tree with per-span wall time and event counts."""
    for node in nodes[:max_children]:
        events = f"  [{len(node['events'])} event(s)]" if node["events"] else ""
        print(f"  {'  ' * depth}{node['name']:<18} {node['duration_us']:>9.0f} us{events}")
        print_tree(node["children"], depth + 1, max_children)
    hidden = len(nodes) - max_children
    if hidden > 0:
        print(f"  {'  ' * depth}... {hidden} more sibling span(s)")


def main() -> None:
    workload = Workload(physics="heat", dim=2, subdomains=(4, 4), cells=4)

    print("=== Convergence reports at two tolerances ===\n")
    for tolerance in (1e-4, 1e-9):
        spec = SolverSpec(tolerance=tolerance, residual_history=64)
        with Session(spec) as session:
            solution = session.solve(workload)
        print(solution.convergence.describe())
        print()

    print("=== Why that many iterations: the condition estimate per preconditioner ===\n")
    with Session() as session:
        for kind in ("none", "lumped", "dirichlet"):
            report = session.solve(workload, SolverSpec(preconditioner=kind)).convergence
            print(
                f"  {kind:<10} {report.iterations:3d} iterations   "
                f"κ(PMPF) ≈ {report.condition_estimate:6.2f}"
            )
    print()

    print("=== The span tree of one traced solve ===\n")
    with trace() as tracer:
        with Session(SolverSpec(residual_history=64)) as session:
            session.solve(workload)
    print_tree(tracer.to_tree())
    n_events = len(tracer.to_chrome()["traceEvents"])
    print(
        f"\n{len(tracer)} spans / {n_events} Chrome trace events; "
        "tracer.write_chrome(path) saves a chrome://tracing-loadable file."
    )


if __name__ == "__main__":
    main()
