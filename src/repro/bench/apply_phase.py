"""The ``apply_phase`` scenario: sequential vs stacked multi-RHS applies.

PR 7 parallelized the solve phase end to end; this scenario isolates its
hottest kernel — the dual-operator apply — and measures the two ways a
multi-RHS block can be driven through it, per runtime backend:

* **sequential** — ``k`` scalar ``operator.apply(column)`` calls, the
  bit-exact reference path (and what a naive caller would write);
* **stacked** — one ``operator.apply_multi(block, stacked=True)`` call,
  the fused-GEMM path used by ``Session.solve_many`` throughput callers.

Simulated apply seconds come from the operator's timing ledger and are
deterministic, so the comparator gates them at the usual rtol.  Wall
seconds are recorded (best-of-``rounds``) but not comparator-gated; the
run itself enforces the PR's structural floor instead: on the process
backend the stacked path must beat ``k`` sequential applies by strictly
more than the committed speedup floor, because each sequential apply pays
a pool span dispatch while the stacked block runs as one parent GEMM on
the already-uploaded arena pack.  The run also re-checks the numerical
contract (stacked ≤ 1e-12 of sequential, relative) on every backend.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.api.workload import Workload
from repro.bench.registry import Scenario, register

__all__ = ["ApplyPhaseScenario", "APPLY_PHASE_BACKENDS"]

#: ``(point prefix, SolverSpec execution string)`` per measured backend.
APPLY_PHASE_BACKENDS: tuple[tuple[str, str | None], ...] = (
    ("serial", None),
    ("threads4", "threads:4"),
    ("processes4", "processes:4"),
)

#: Seed of the deterministic multi-RHS block (fixed forever: the block is
#: part of the measured workload, so baselines depend on it).
_BLOCK_SEED = 20250806


@dataclass
class ApplyPhaseScenario(Scenario):
    """Sequential vs stacked block applies across runtime backends."""

    backends: tuple[tuple[str, str | None], ...] = APPLY_PHASE_BACKENDS
    n_rhs: int = 8
    rounds: int = 3
    #: The process-backend stacked speedup every run must strictly exceed.
    min_processes_speedup: float = 1.39

    def n_points(self) -> int:
        return 2 * len(self.backends)

    def run_record(
        self, check_invariants: bool = True, point_timeout: float | None = None
    ) -> dict[str, Any]:
        """Measure every backend and build the schema-v2 record.

        ``point_timeout`` is accepted for hook-signature compatibility but
        unused: the applies are short, in-process, and cannot wedge the way
        an HTTP request can.
        """
        from repro.bench.runner import SCHEMA_VERSION as RECORD_SCHEMA_VERSION
        from repro.bench.runner import environment_stamp

        points: list[dict[str, Any]] = []
        derived: dict[str, float] = {}
        for prefix, execution in self.backends:
            measured = self._measure_backend(execution)
            if check_invariants:
                self._check_backend(prefix, measured)
            for variant in ("sequential", "stacked"):
                m = measured[variant]
                points.append(
                    {
                        "key": f"{prefix}/{variant}",
                        "invariants": {
                            "n_lambda": measured["n_lambda"],
                            "n_rhs": self.n_rhs,
                        },
                        "simulated": {
                            "apply_seconds": m["simulated_seconds"],
                        },
                        "wall": {
                            "wall_seconds": m["wall_seconds"],
                            "per_column_seconds": m["wall_seconds"] / self.n_rhs,
                        },
                    }
                )
            speedup = (
                measured["sequential"]["wall_seconds"]
                / measured["stacked"]["wall_seconds"]
            )
            derived[f"wall_apply_stacked_speedup[{prefix}]"] = speedup
        return {
            "schema_version": RECORD_SCHEMA_VERSION,
            "benchmark": self.name,
            "scenario": {
                "description": self.description,
                "physics": self.base.physics,
                "dim": self.base.dim,
                "order": self.base.order,
                "n_clusters": self.base.n_clusters,
                "tags": sorted(self.tags),
                "n_applies": self.n_applies,
            },
            "apply_phase": {
                "approach": self.approaches[0].value,
                "n_rhs": self.n_rhs,
                "rounds": self.rounds,
                "backends": [prefix for prefix, _ in self.backends],
                "min_processes_speedup": self.min_processes_speedup,
            },
            "environment": environment_stamp(),
            "points": points,
            "derived": derived,
        }

    # ------------------------------------------------------------------ #
    def _measure_backend(self, execution: str | None) -> dict[str, Any]:
        """Wall + simulated seconds of both variants on one backend."""
        from repro.api import Session, SolverSpec

        approach = self.approaches[0].value
        spec = (
            SolverSpec(approach=approach, execution=execution)
            if execution is not None
            else SolverSpec(approach=approach)
        )
        with Session(spec) as session:
            operator = session.operator_for(self.base)
            operator.prepare()
            operator.preprocess()
            n_lambda = session.problem(self.base).n_lambda
            rng = np.random.default_rng(_BLOCK_SEED)
            block = rng.standard_normal((n_lambda, self.n_rhs))
            columns = [np.ascontiguousarray(block[:, j]) for j in range(self.n_rhs)]

            # Warm both paths untimed: the first process-backend apply spawns
            # the worker pool and uploads the arena pack.
            seq_ref = np.column_stack([operator.apply(col) for col in columns])
            stacked_ref = operator.apply_multi(block, stacked=True)

            ledger = operator.ledger
            measured: dict[str, Any] = {"n_lambda": int(n_lambda)}
            for variant in ("sequential", "stacked"):
                best_wall = float("inf")
                ledger.mark("apply", "apply_multi")
                for _ in range(self.rounds):
                    start = time.perf_counter()
                    if variant == "sequential":
                        for col in columns:
                            operator.apply(col)
                    else:
                        operator.apply_multi(block, stacked=True)
                    best_wall = min(best_wall, time.perf_counter() - start)
                simulated = ledger.since_mark() / self.rounds
                measured[variant] = {
                    "wall_seconds": best_wall,
                    "simulated_seconds": simulated,
                }
            denom = max(float(np.linalg.norm(seq_ref)), 1e-300)
            measured["stacked_rel_error"] = float(
                np.linalg.norm(stacked_ref - seq_ref) / denom
            )
        return measured

    def _check_backend(self, prefix: str, measured: dict[str, Any]) -> None:
        """The run-time invariants (the comparator does not gate derived)."""
        from repro.bench.runner import InvariantViolation

        rel = measured["stacked_rel_error"]
        if not rel <= 1e-12:
            raise InvariantViolation(
                f"scenario {self.name!r}: {prefix} stacked apply_multi is "
                f"{rel:.3e} relative from {self.n_rhs} sequential applies "
                "(contract: <= 1e-12)"
            )
        if prefix == "processes4":
            speedup = (
                measured["sequential"]["wall_seconds"]
                / measured["stacked"]["wall_seconds"]
            )
            if not speedup > self.min_processes_speedup:
                raise InvariantViolation(
                    f"scenario {self.name!r}: process-backend stacked apply "
                    f"speedup {speedup:.2f}x is not strictly above the "
                    f"{self.min_processes_speedup}x floor — the fused block "
                    "path no longer amortizes the per-apply span dispatch"
                )


def _register_default() -> None:
    from repro.feti.config import DualOperatorApproach

    register(
        ApplyPhaseScenario(
            name="apply_phase",
            description=(
                "multi-RHS dual-operator applies: k sequential scalar applies "
                "vs one stacked GEMM block, per runtime backend"
            ),
            base=Workload("heat", 2, (8, 8), 8),
            approaches=(DualOperatorApproach("expl mkl"),),
            tags=frozenset({"runtime", "scaling", "wall"}),
            expected={"n_subdomains": 64, "dofs_per_subdomain": 81},
        )
    )


_register_default()
