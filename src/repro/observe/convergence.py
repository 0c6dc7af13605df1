"""Per-solve convergence telemetry.

A :class:`ConvergenceReport` condenses what the PCPG loop saw — iteration
count, residual trajectory, condition estimate, defect-correction rounds —
into a frozen, JSON-friendly record attached to ``FetiSolution.convergence`` whenever
``SolverSpec(residual_history=N)`` opts in.  The module is deliberately
dependency-free (duck-typed against ``PcpgResult``) so ``repro.observe``
never imports solver code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["ConvergenceReport"]


@dataclass(frozen=True)
class ConvergenceReport:
    """Summary of one PCPG solve's convergence behaviour."""

    iterations: int
    converged: bool
    tolerance: float
    initial_norm: float
    final_norm: float
    relative_residual: float
    defect_rounds: int = 0
    #: First ``residual_history`` per-iteration norms (iteration 0 = initial).
    residual_history: tuple[float, ...] = field(default_factory=tuple)
    #: True when the solve ran more iterations than the history cap kept.
    history_truncated: bool = False
    #: Number of right-hand-side columns the solve covered (block solves).
    columns: int = 1
    #: Lanczos estimate of ``κ(P M P F)`` from the PCPG coefficients (``None``
    #: when no iteration ran).  CG needs about ``√κ · ln(2/tolerance) / 2``
    #: iterations, so this is the "why that many" next to ``iterations``.
    condition_estimate: float | None = None

    @classmethod
    def from_pcpg(cls, result: Any, tolerance: float, columns: int = 1) -> "ConvergenceReport":
        """Build from a ``PcpgResult``-shaped object (duck-typed)."""
        norms = list(getattr(result, "residual_norms", []) or [])
        history = tuple(getattr(result, "residual_history", []) or [])
        initial = float(norms[0]) if norms else 0.0
        final = float(norms[-1]) if norms else 0.0
        return cls(
            iterations=int(result.iterations),
            converged=bool(result.converged),
            tolerance=float(tolerance),
            initial_norm=float(initial),
            final_norm=final,
            relative_residual=final / initial if initial > 0 else 0.0,
            defect_rounds=int(getattr(result, "defect_rounds", 0)),
            residual_history=history,
            history_truncated=bool(history) and len(history) < len(norms),
            columns=int(columns),
            condition_estimate=getattr(result, "condition_estimate", None),
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "iterations": self.iterations,
            "converged": self.converged,
            "tolerance": self.tolerance,
            "initial_norm": self.initial_norm,
            "final_norm": self.final_norm,
            "relative_residual": self.relative_residual,
            "defect_rounds": self.defect_rounds,
            "residual_history": list(self.residual_history),
            "history_truncated": self.history_truncated,
            "columns": self.columns,
            "condition_estimate": self.condition_estimate,
        }

    def describe(self) -> str:
        """Multi-line human-readable report (used by the examples demo)."""
        status = "converged" if self.converged else "NOT converged"
        lines = [
            f"PCPG {status} in {self.iterations} iterations "
            f"(tolerance {self.tolerance:.1e}, columns {self.columns})",
            f"  residual: {self.initial_norm:.6e} -> {self.final_norm:.6e} "
            f"(relative {self.relative_residual:.3e})",
        ]
        if self.condition_estimate is not None:
            lines.append(f"  condition estimate κ(PMPF): {self.condition_estimate:.2f}")
        if self.defect_rounds:
            lines.append(f"  defect-correction rounds: {self.defect_rounds}")
        if self.residual_history:
            suffix = " (truncated)" if self.history_truncated else ""
            lines.append(f"  residual history ({len(self.residual_history)} entries{suffix}):")
            for i, norm in enumerate(self.residual_history):
                rel = norm / self.initial_norm if self.initial_norm > 0 else 0.0
                lines.append(f"    iter {i:3d}  |r| = {norm:.6e}  rel = {rel:.3e}")
        return "\n".join(lines)
