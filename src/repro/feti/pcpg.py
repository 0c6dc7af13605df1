"""The preconditioned conjugate projected gradient method (Algorithm 1).

The paper's pseudo-code is written once, in :func:`pcpg`, for one
right-hand side or many run in lockstep: every column keeps its own
recursion, and each iteration applies ``F``, ``P`` and ``M`` once to the
list of still-active columns.  The applies are arbitrary callables (``F``
is one of the approaches of :mod:`repro.feti.operators`), so the same loop
drives every implicit, explicit, CPU, GPU and hybrid variant;
:func:`per_column` and :func:`stacked` make a list apply of a vector or a
block one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from repro.observe.trace import trace_event, trace_span, tracing_active

__all__ = ["ColumnsApply", "PcpgResult", "pcpg", "per_column", "stacked"]

#: An operator applied to a list of columns: the list of the columns applied.
ColumnsApply = Callable[[list[np.ndarray]], list[np.ndarray]]


@dataclass
class PcpgResult:
    """Result of a PCPG solve."""

    lam: np.ndarray
    iterations: int
    converged: bool
    #: Final value of ``d − F λ`` (reused for the α recovery).
    final_residual: np.ndarray
    residual_norms: list[float] = field(default_factory=list)
    #: First ``SolverSpec.residual_history`` per-iteration norms (opt-in;
    #: empty when history capture is off).  Entry 0 is the initial residual.
    residual_history: list[float] = field(default_factory=list)
    #: The iteration's step lengths ``δₖ`` and direction coefficients ``βₖ``.
    deltas: list[float] = field(default_factory=list, repr=False)
    betas: list[float] = field(default_factory=list, repr=False)

    @cached_property
    def condition_estimate(self) -> float | None:
        """Estimate of ``κ(P M P F)`` on ``range(P)`` from ``δₖ`` / ``βₖ``.

        ``None`` when no iteration ran or ``M`` lost positivity; a lower
        bound that tightens as the solve converges.  Computed (one LAPACK
        call) on first read: no solve pays for an estimate nobody reads.
        """
        return _lanczos_condition(self.deltas, self.betas)

    @property
    def relative_residual(self) -> float:
        """Last recorded residual norm divided by the first."""
        if not self.residual_norms or self.residual_norms[0] == 0.0:
            return 0.0
        return self.residual_norms[-1] / self.residual_norms[0]


def _lanczos_condition(deltas: Sequence[float], betas: Sequence[float]) -> float | None:
    """``λmax / λmin`` of the Lanczos tridiagonal the CG coefficients define.

    ``k`` conjugate-gradient steps with step lengths ``δ₀ … δₖ₋₁`` and
    direction coefficients ``β₀ … βₖ₋₂`` are ``k`` Lanczos steps on the
    preconditioned operator, whose tridiagonal has the diagonal
    ``1/δⱼ + βⱼ₋₁/δⱼ₋₁`` and the off-diagonal ``√βⱼ / δⱼ``; its extreme
    eigenvalues (Ritz values) converge to the operator's from inside.
    """
    if not deltas:
        return None
    delta = np.asarray(deltas)
    beta = np.asarray(betas[: delta.size - 1])
    if (delta <= 0.0).any() or (beta < 0.0).any():
        return None
    diagonal = 1.0 / delta
    diagonal[1:] += beta / delta[:-1]
    ritz = eigvalsh_tridiagonal(diagonal, np.sqrt(beta) / delta[:-1])
    return float(ritz[-1] / ritz[0]) if ritz[0] > 0.0 else None


def _exact_start(w: np.ndarray, d: np.ndarray, tolerance: float) -> bool:
    """Whether ``λ₀`` already solves the problem: ``‖P(d − F λ₀)‖ ≤ tol · ‖d‖``.

    The loop measures progress against its own initial residual; when
    ``λ₀ = G (GᵀG)⁻¹ e`` is exact, that residual is rounding noise and
    ``tolerance`` times it is out of reach, so the start is judged against
    the right-hand side instead.
    """
    return bool(np.linalg.norm(w) <= tolerance * np.linalg.norm(d))


def per_column(apply: Callable[[np.ndarray], np.ndarray]) -> ColumnsApply:
    """A vector apply as a column-list apply: one call per column."""

    def apply_columns(columns: list[np.ndarray]) -> list[np.ndarray]:
        # A plain loop: the loop calls this four times per iteration, and a
        # comprehension costs an extra frame per call before Python 3.12.
        applied = []
        for column in columns:
            applied.append(apply(column))
        return applied

    return apply_columns


def stacked(apply_block: Callable[[np.ndarray], np.ndarray]) -> ColumnsApply:
    """A block apply as a column-list apply: one call on the columns stacked
    into an ``(n_λ, k)`` matrix, its result split back into contiguous ones."""

    def apply(columns: list[np.ndarray]) -> list[np.ndarray]:
        block = apply_block(np.column_stack(columns))
        return [np.ascontiguousarray(block[:, i]) for i in range(len(columns))]

    return apply


def pcpg(
    apply_F: ColumnsApply,
    apply_P: ColumnsApply,
    apply_M: ColumnsApply,
    d: Sequence[np.ndarray],
    lambda_0: Sequence[np.ndarray],
    *,
    tolerance: float = 1e-9,
    max_iterations: int = 500,
    absolute_tolerance: float = 1e-300,
    residual_history: int = 0,
) -> list[PcpgResult]:
    """Run Algorithm 1 of the paper on ``k`` right-hand sides in lockstep.

    Every column keeps its own recursion — its own ``wy``/``δ``/``β``
    scalars and its own C-contiguous 1-D state vectors, so its dots and
    axpys are those of a one-column solve — while each iteration applies
    ``F``, ``P`` and ``M`` once to the list of its still-active columns.
    A column stops when it converges or breaks down and leaves the later
    applies, so late-converging columns do not pay for early ones.  How a
    list is applied is the caller's choice: :func:`per_column` (one call
    per column, so a solve of ``k`` columns is bitwise ``k`` solves of
    one) or :func:`stacked` (one block call, e.g. the fused GEMM of
    :meth:`~repro.feti.operators.base.DualOperator.apply_multi`).

    Parameters
    ----------
    apply_F, apply_P, apply_M:
        The dual operator ``λ ↦ F λ``, the coarse projector ``P`` and the
        preconditioner ``M``, each mapping a list of columns to the list
        of the columns applied.
    d:
        Dual right-hand sides ``d = B K⁺ f − c``, one per column.
    lambda_0:
        Feasible initial iterates (``Gᵀ λ₀ = e``), one per column.
    tolerance:
        Relative tolerance on a column's projected-preconditioned residual
        norm ``sqrt(wᵀ y)`` with respect to its initial value.  A ``λ₀``
        whose projected residual is already within ``tolerance · ‖d‖``
        counts as converged in zero iterations.
    max_iterations:
        Hard iteration cap.
    absolute_tolerance:
        Absolute floor on the same quantity (protects against a zero initial
        residual).
    residual_history:
        Keep the first ``residual_history`` residual norms per column on
        ``PcpgResult.residual_history`` (0 keeps none).
    """
    n_cols = len(d)
    if len(lambda_0) != n_cols:
        raise ValueError(f"{n_cols} right-hand sides but {len(lambda_0)} initial iterates")
    if n_cols == 0:
        return []

    traced = tracing_active()
    if traced:

        def project(columns: list[np.ndarray]) -> list[np.ndarray]:
            with trace_span("project"):
                return apply_P(columns)

        def precondition(columns: list[np.ndarray]) -> list[np.ndarray]:
            with trace_span("precondition"):
                return apply_M(columns)

    else:
        # No trace is live: the applies are called directly.
        project, precondition = apply_P, apply_M

    lam = [np.array(l0, dtype=float, copy=True) for l0 in lambda_0]
    r = [np.asarray(d_j, dtype=float) - F_j for d_j, F_j in zip(d, apply_F(lam))]
    w = project(r)
    y = project(precondition(w))
    p = [y_j.copy() for y_j in y]
    wy = [float(w_j @ y_j) for w_j, y_j in zip(w, y)]
    norms = [[np.sqrt(abs(wy_j))] for wy_j in wy]
    tol = [max(tolerance * n_j[0], absolute_tolerance) for n_j in norms]
    iterations = [0] * n_cols
    converged = [False] * n_cols
    deltas: list[list[float]] = [[] for _ in range(n_cols)]
    betas: list[list[float]] = [[] for _ in range(n_cols)]
    active = []
    for j in range(n_cols):
        if norms[j][0] <= absolute_tolerance or _exact_start(w[j], d[j], tolerance):
            converged[j] = True
        else:
            active.append(j)

    # Scratch buffers for the axpy updates: the dual vectors are the hot-path
    # arrays of the whole solve, so the loop avoids allocating fresh
    # temporaries for ``delta * p`` / ``delta * q`` every iteration.
    scratch = [np.empty_like(lam_j) for lam_j in lam]
    # The active columns' directions and residuals: the arrays are updated
    # in place, so the lists change only when a column stops.
    p_active = [p[j] for j in active]
    r_active = [r[j] for j in active]
    for k in range(1, max_iterations + 1):
        if not active:
            break
        with trace_span("iteration", k=k, active=len(active)):
            # The step along every active column's direction.
            stepped = []
            for j, q in zip(active, apply_F(p_active)):
                pq = float(p[j] @ q)
                if not pq > 0.0:
                    # Loss of positive definiteness on the constraint
                    # subspace, or a NaN from non-finite data: this column
                    # stops and reports non-convergence.
                    iterations[j] = k - 1
                    continue
                delta = wy[j] / pq
                deltas[j].append(delta)
                np.multiply(p[j], delta, out=scratch[j])
                lam[j] += scratch[j]
                np.multiply(q, delta, out=scratch[j])
                r[j] -= scratch[j]
                stepped.append(j)
            if len(stepped) < len(active):
                if not stepped:
                    break
                r_active = [r[j] for j in stepped]
            # The convergence check and the next direction.
            w = project(r_active)
            still_active = []
            for j, w_j, y_j in zip(stepped, w, project(precondition(w))):
                wy_next = float(w_j @ y_j)
                norm = np.sqrt(abs(wy_next))
                norms[j].append(norm)
                if traced:
                    trace_event("residual", column=j, iteration=k, norm=norm)
                if norm <= tol[j]:
                    converged[j] = True
                    iterations[j] = k
                    continue
                beta = wy_next / wy[j]
                betas[j].append(beta)
                p[j] *= beta
                p[j] += y_j
                wy[j] = wy_next
                still_active.append(j)
            if len(still_active) < len(active):
                p_active = [p[j] for j in still_active]
                r_active = [r[j] for j in still_active]
            active = still_active
    else:
        for j in active:
            iterations[j] = max_iterations

    return [
        PcpgResult(
            lam=lam[j],
            iterations=iterations[j],
            converged=converged[j],
            final_residual=r[j],
            residual_norms=norms[j],
            residual_history=norms[j][:residual_history],
            deltas=deltas[j],
            betas=betas[j],
        )
        for j in range(n_cols)
    ]
