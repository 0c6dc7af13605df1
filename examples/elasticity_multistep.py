"""Multi-step linear-elasticity simulation (Algorithm 2 of the paper).

A 2D cantilever under a time-varying body force is solved over several time
steps.  The schedule is part of the :class:`~repro.api.Workload` itself:
``steps=4`` with ``load_ramp=0.5`` scales the loads per step while the mesh
(and therefore every sparsity pattern) stays fixed, so the symbolic
factorizations and the persistent GPU structures are prepared once.  A step
re-runs the numeric factorization and the explicit assembly of the local dual
operators ``F̃ᵢ`` on the simulated GPU only when its update returns new
stiffness values (a ``StepValues``) — the paper's use case, where ``K``
changes every step.  This
ramp changes only the loads, so step 0 preprocesses and every later step
reuses its factors and ``F̃ᵢ`` and runs just the PCPG solve (the
``preprocessed`` column).

The ``elasticity-2d-multistep`` workload preset registers this exact
configuration; here it is written out in full.

Run with:  python examples/elasticity_multistep.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reporting import format_table
from repro.api import Material, Session, SolverSpec, Workload


def main() -> None:
    workload = Workload(
        physics="elasticity",
        dim=2,
        subdomains=(4, 1),
        cells=6,
        order=2,
        steps=4,
        load_ramp=0.5,
        material=Material(young=200.0, poisson=0.3, body_force=(0.0, -1.0)),
    )
    spec = SolverSpec(
        approach="expl legacy", assembly="table2", tolerance=1e-8, max_iterations=400
    )

    session = Session(spec)
    print(session.problem(workload).decomposition.summary())
    result = session.run(workload)

    rows = []
    for record in result.records:
        rows.append(
            [
                record.step,
                record.iterations,
                "yes" if record.converged else "no",
                "yes" if record.preprocessed else "no",
                f"{record.preprocessing_seconds * 1e3:.3f}",
                f"{record.apply_seconds * 1e3:.3f}",
                f"{record.dual_operator_seconds * 1e3:.3f}",
            ]
        )
    print(
        format_table(
            ["step", "PCPG iters", "converged", "preprocessed", "preprocessing [ms]",
             "applications [ms]", "dual operator total [ms]"],
            rows,
            title="Multi-step simulation (simulated dual-operator times)",
        )
    )
    print(
        f"\ntotal simulated dual-operator time: "
        f"{result.total_dual_operator_seconds * 1e3:.3f} ms over {len(result.records)} steps"
    )

    # Physical sanity: the tip deflection under the final (largest) load.
    tip = []
    for sub, u in zip(result.problem.subdomains, result.solution.primal):
        at_tip = np.abs(sub.mesh.coords[:, 0] - 1.0) < 1e-12
        if at_tip.any():
            tip.append(u[1::2][at_tip].min())
    print(f"tip deflection under the final load: {min(tip):.5f}")


if __name__ == "__main__":
    main()
