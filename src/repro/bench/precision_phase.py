"""The ``precision_phase`` scenario: mixed-precision factor storage.

The :mod:`repro.memory` subsystem stores supernodal factors and packed
``local_F`` blocks at a policy dtype (``fp64`` / ``fp32`` / ``fp32_ir``,
the last adding iterative refinement).  This scenario measures the trade on
a multi-subdomain workload across backend classes:

* **resident bytes** — the byte-accurate factor/pack/arena split of every
  prepared solver (:meth:`~repro.feti.operators.base.DualOperator.
  storage_nbytes`), deterministic and therefore comparator-gated;
* **true residual** — ``||P (d - F λ)||`` of the returned multipliers,
  measured against a *separate fp64 reference solver's* operator.  A
  reduced-precision solver's own operator is made of the same rounded
  factors it iterated on, so self-measured residuals look perfect; only an
  independent fp64 operator exposes the accuracy actually delivered.

The scenario has one unit per approach: the unit solves one fp64
reference, then measures one point per entry of the ``precision`` axis
against it.  Wall seconds and residuals are recorded but not
comparator-gated; the run itself enforces structural floors instead:
storing fp32 factors must shrink factor bytes by the committed minimum
ratio, and ``fp32_ir`` must land within the committed factor of the fp64
residual on every measured approach (the paper-level claim that refinement
recovers double precision from single-precision storage).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.api.session import Session
from repro.api.spec import SolverSpec
from repro.api.workload import Workload
from repro.bench.registry import Scenario, register
from repro.bench.runner import RUNNER_MACHINE, InvariantViolation
from repro.feti.config import DualOperatorApproach

__all__ = ["PrecisionPhaseScenario"]


@dataclass
class PrecisionPhaseScenario(Scenario):
    """Mixed-precision storage vs accuracy across dual-operator backends."""

    #: Minimum fp64/fp32 factor-bytes ratio every approach must reach
    #: (exactly 2.0 is expected; the floor leaves headroom for retained
    #: metadata that does not halve).
    min_factor_bytes_reduction: float = 1.7
    #: Ceiling on ``residual(fp32_ir) / residual(fp64)`` per approach.
    max_ir_residual_ratio: float = 10.0

    def units(self) -> dict[str, DualOperatorApproach]:
        return {approach.value: approach for approach in self.approaches}

    def measure(self, approach: DualOperatorApproach) -> list[dict[str, Any]]:
        """One point per precision, each solved in a fresh session and
        measured against one independent fp64 reference operator."""

        def spec_for(precision: str) -> SolverSpec:
            return SolverSpec(
                approach=approach,
                threads_per_cluster=RUNNER_MACHINE.threads_per_cluster,
                streams_per_cluster=RUNNER_MACHINE.streams_per_cluster,
                precision=precision,
            )

        rows = []
        with Session(spec_for("fp64")) as ref_session:
            ref_solver = ref_session.solver(self.base)
            ref_session.solve(self.base)  # prepares + preprocesses
            d_ref = ref_solver.operator.dual_rhs()
            for precision in self.precision:
                # Every precision (fp64 included) runs in a fresh session,
                # so each point pays the same cache costs.
                with Session(spec_for(precision)) as session:
                    solver = session.solver(self.base)
                    start = time.perf_counter()
                    solution = session.solve(self.base)
                    wall = time.perf_counter() - start
                    storage = {k: int(v) for k, v in solver.operator.storage_nbytes().items()}
                residual = np.linalg.norm(
                    ref_solver.projector.apply(d_ref - ref_solver.operator.apply(solution.lam))
                )
                rows.append(
                    {
                        "key": f"{approach.value}/{precision}",
                        "invariants": {
                            "n_lambda": int(len(solution.lam)),
                            "n_subdomains": int(ref_solver.problem.n_subdomains),
                        },
                        "simulated": {
                            "factor_bytes": storage["factor"],
                            "pack_bytes": storage["pack"],
                            "arena_bytes": storage["arena"],
                            "resident_bytes": sum(storage.values()),
                        },
                        "wall": {
                            "solve_seconds": wall,
                            "true_residual": float(residual),
                            "iterations": float(solution.iterations),
                            "converged": float(solution.converged),
                        },
                    }
                )
        return rows

    def check(self, rows: list[dict[str, Any]]) -> None:
        """The run-time invariants (the comparator does not gate residuals)."""
        for name, by_precision in _by_approach(rows).items():
            fp64, fp32, ir = (by_precision.get(p) for p in ("fp64", "fp32", "fp32_ir"))
            if fp64 is not None and ir is not None:
                fp64_res = fp64["wall"]["true_residual"]
                ir_res = ir["wall"]["true_residual"]
                # The absolute floor keeps a pathologically tiny fp64 residual
                # from failing an fp32_ir run that is itself at noise level.
                if not ir_res <= max(self.max_ir_residual_ratio * fp64_res, 1e-11):
                    raise InvariantViolation(
                        f"scenario {self.name!r}: {name}/fp32_ir true residual "
                        f"{ir_res:.3e} exceeds {self.max_ir_residual_ratio}x the "
                        f"fp64 residual {fp64_res:.3e} — iterative refinement no "
                        "longer recovers double-precision accuracy"
                    )
            if fp64 is not None and fp32 is not None:
                fp32_factor = fp32["simulated"]["factor_bytes"]
                ratio = (
                    fp64["simulated"]["factor_bytes"] / fp32_factor
                    if fp32_factor
                    else float("inf")
                )
                if not ratio >= self.min_factor_bytes_reduction:
                    raise InvariantViolation(
                        f"scenario {self.name!r}: {name}/fp32 factor bytes shrink "
                        f"only {ratio:.2f}x vs fp64 (floor: "
                        f"{self.min_factor_bytes_reduction}x) — the storage policy "
                        "is no longer demoting the factor values"
                    )

    def derived(self, rows: list[dict[str, Any]]) -> dict[str, float]:
        derived: dict[str, float] = {}
        for name, by_precision in _by_approach(rows).items():
            if "fp64" not in by_precision or "fp32" not in by_precision:
                continue
            fp64 = by_precision["fp64"]["simulated"]
            fp32 = by_precision["fp32"]["simulated"]
            if fp32["factor_bytes"] > 0:
                derived[f"factor_bytes_reduction[{name}]"] = (
                    fp64["factor_bytes"] / fp32["factor_bytes"]
                )
            if fp32["resident_bytes"] > 0:
                derived[f"resident_bytes_reduction[{name}]"] = (
                    fp64["resident_bytes"] / fp32["resident_bytes"]
                )
        return derived


def _by_approach(rows: list[dict[str, Any]]) -> dict[str, dict[str, dict[str, Any]]]:
    """``{approach: {precision: point}}`` of the measured points."""
    table: dict[str, dict[str, dict[str, Any]]] = {}
    for row in rows:
        name, _, precision = row["key"].rpartition("/")
        table.setdefault(name, {})[precision] = row
    return table


def _register_default() -> None:
    register(
        PrecisionPhaseScenario(
            name="precision_phase",
            description=(
                "mixed-precision factor storage: resident bytes and true "
                "residual (vs an fp64 reference operator) per precision policy"
            ),
            base=Workload("heat", 2, (4, 4), 6, n_clusters=2),
            approaches=(
                DualOperatorApproach("expl mkl"),
                DualOperatorApproach("impl cholmod"),
                DualOperatorApproach("expl modern"),
            ),
            precision=("fp64", "fp32", "fp32_ir"),
            tags=frozenset({"quick", "wall", "memory", "precision"}),
            expected={"n_subdomains": 16, "kernel_dim": 1},
        )
    )


_register_default()
