"""The ``apply_phase`` scenario: sequential vs stacked multi-RHS applies.

The scenario isolates the solve phase's hottest kernel — the dual-operator
apply — and measures the two ways a multi-RHS block can be driven through
it:

* **sequential** — ``k`` scalar ``operator.apply(column)`` calls, the
  bit-exact reference path (and what a naive caller would write);
* **stacked** — one ``operator.apply_multi(block)`` call,
  the fused-GEMM path used by ``Session.solve_many`` throughput callers.

The apply runs in the caller's process on every executor, so the
registered scenario measures one serial unit (an ``execution`` override
changes only where the preprocessing runs).  Simulated apply seconds come
from the operator's timing ledger and are deterministic, so the comparator
gates them at the usual rtol.  Wall seconds are recorded
(best-of-``rounds``) but not comparator-gated.  The run re-checks the
numerical contract: stacked ≤ 1e-12 of sequential, relative.
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
from repro.bench.runner import InvariantViolation
from repro.runtime.executor import ExecutionSpec

__all__ = ["ApplyPhaseScenario"]

#: Seed of the deterministic multi-RHS block (fixed forever: the block is
#: part of the measured workload, so baselines depend on it).
_BLOCK_SEED = 20250806


@dataclass
class ApplyPhaseScenario(Scenario):
    """Sequential vs stacked block applies of one preprocessed operator.

    One unit per entry of the ``execution`` axis, named by its short form
    (``serial`` for the registered scenario); each unit measures the
    ``<backend>/sequential`` then the ``<backend>/stacked`` point.
    """

    n_rhs: int = 8
    rounds: int = 3

    def units(self) -> dict[str, ExecutionSpec | None]:
        return {ExecutionSpec.of(e).describe(): e for e in self.execution}

    def measure(self, execution: ExecutionSpec | None) -> list[dict[str, Any]]:
        """Wall + simulated seconds of both variants on one backend."""
        backend = ExecutionSpec.of(execution).describe()
        spec = SolverSpec(approach=self.approaches[0], execution=execution)
        with Session(spec) as session:
            operator = session.operator_for(self.base)
            operator.prepare()
            operator.preprocess()
            n_lambda = session.problem(self.base).n_lambda
            rng = np.random.default_rng(_BLOCK_SEED)
            block = rng.standard_normal((n_lambda, self.n_rhs))
            columns = [np.ascontiguousarray(block[:, j]) for j in range(self.n_rhs)]

            # Warm both paths untimed: the first apply plans the timeline.
            seq_ref = np.column_stack([operator.apply(col) for col in columns])
            stacked_ref = operator.apply_multi(block)

            ledger = operator.ledger
            rows = []
            for variant in ("sequential", "stacked"):
                best_wall = float("inf")
                ledger.mark("apply", "apply_multi")
                for _ in range(self.rounds):
                    start = time.perf_counter()
                    if variant == "sequential":
                        for col in columns:
                            operator.apply(col)
                    else:
                        operator.apply_multi(block)
                    best_wall = min(best_wall, time.perf_counter() - start)
                rows.append(
                    {
                        "key": f"{backend}/{variant}",
                        "invariants": {"n_lambda": int(n_lambda), "n_rhs": self.n_rhs},
                        "simulated": {"apply_seconds": ledger.since_mark() / self.rounds},
                        "wall": {
                            "wall_seconds": best_wall,
                            "per_column_seconds": best_wall / self.n_rhs,
                        },
                    }
                )
        denom = max(float(np.linalg.norm(seq_ref)), 1e-300)
        rows[1]["stacked_rel_error"] = float(np.linalg.norm(stacked_ref - seq_ref) / denom)
        rows[1]["speedup"] = rows[0]["wall"]["wall_seconds"] / rows[1]["wall"]["wall_seconds"]
        return rows

    def check(self, rows: list[dict[str, Any]]) -> None:
        """The numerical contract of the stacked apply, on every unit."""
        for stacked in rows[1::2]:
            backend = stacked["key"].partition("/")[0]
            rel = stacked["stacked_rel_error"]
            if not rel <= 1e-12:
                raise InvariantViolation(
                    f"scenario {self.name!r}: {backend} stacked apply_multi is "
                    f"{rel:.3e} relative from {self.n_rhs} sequential applies "
                    "(contract: <= 1e-12)"
                )

    def derived(self, rows: list[dict[str, Any]]) -> dict[str, float]:
        return {
            f"wall_apply_stacked_speedup[{r['key'].partition('/')[0]}]": r["speedup"]
            for r in rows[1::2]
        }


def _register_default() -> None:
    from repro.feti.config import DualOperatorApproach

    register(
        ApplyPhaseScenario(
            name="apply_phase",
            description=(
                "multi-RHS dual-operator applies: k sequential scalar applies "
                "vs one stacked GEMM block"
            ),
            base=Workload("heat", 2, (8, 8), 8),
            approaches=(DualOperatorApproach("expl mkl"),),
            tags=frozenset({"wall"}),
            expected={"n_subdomains": 64, "dofs_per_subdomain": 81},
        )
    )


_register_default()
