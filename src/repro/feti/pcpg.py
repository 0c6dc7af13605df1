"""The preconditioned conjugate projected gradient method (Algorithm 1).

The implementation follows the paper's pseudo-code line by line; the dual
operator ``F`` is an arbitrary callable (one of the approaches from
:mod:`repro.feti.operators`), so the same loop drives every implicit,
explicit, CPU, GPU and hybrid variant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from repro.observe.trace import trace_event, trace_span

__all__ = ["PcpgResult", "pcpg", "pcpg_block"]


@dataclass
class PcpgResult:
    """Result of a PCPG solve."""

    lam: np.ndarray
    iterations: int
    converged: bool
    residual_norms: list[float] = field(default_factory=list)
    #: Final value of ``d − F λ`` (reused for the α recovery).
    final_residual: np.ndarray | None = None
    #: First ``SolverSpec.residual_history`` per-iteration norms (opt-in;
    #: empty when history capture is off).  Entry 0 is the initial residual.
    residual_history: list[float] = field(default_factory=list)
    #: Defect-correction rounds the solve ran (fp32_ir precision policy).
    defect_rounds: int = 0
    #: Estimate of ``κ(P M P F)`` on ``range(P)`` from the iteration's own
    #: ``δₖ`` / ``βₖ`` (``None`` when no iteration ran or ``M`` lost
    #: positivity); a lower bound that tightens as the solve converges.
    condition_estimate: float | None = None

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


def pcpg(
    apply_F: Callable[[np.ndarray], np.ndarray],
    apply_P: Callable[[np.ndarray], np.ndarray],
    apply_M: Callable[[np.ndarray], np.ndarray],
    d: np.ndarray,
    lambda_0: np.ndarray,
    *,
    tolerance: float = 1e-9,
    max_iterations: int = 500,
    absolute_tolerance: float = 1e-300,
    callback: Callable[[int, float], None] | None = None,
    residual_history: int = 0,
) -> PcpgResult:
    """Run Algorithm 1 of the paper.

    Parameters
    ----------
    apply_F:
        The dual operator ``λ ↦ F λ``.
    apply_P:
        The coarse projector ``P``.
    apply_M:
        The preconditioner ``M``.
    d:
        Dual right-hand side ``d = B K⁺ f − c``.
    lambda_0:
        Feasible initial iterate (``Gᵀ λ₀ = e``).
    tolerance:
        Relative tolerance on the projected-preconditioned residual norm
        ``sqrt(wᵀ y)`` with respect to its initial value.
    max_iterations:
        Hard iteration cap.
    absolute_tolerance:
        Absolute floor on the same quantity (protects against a zero initial
        residual).
    callback:
        Optional per-iteration callback ``callback(k, residual_norm)``.
    residual_history:
        Keep the first ``residual_history`` residual norms on
        ``PcpgResult.residual_history`` (0 keeps none).
    """

    def project(v: np.ndarray) -> np.ndarray:
        with trace_span("project"):
            return apply_P(v)

    def precondition(v: np.ndarray) -> np.ndarray:
        with trace_span("precondition"):
            return apply_M(v)

    lam = np.array(lambda_0, dtype=float, copy=True)
    r = d - apply_F(lam)
    w = project(r)
    y = project(precondition(w))
    p = y.copy()

    wy = float(w @ y)
    norm0 = np.sqrt(abs(wy))
    norms = [norm0]
    if norm0 <= absolute_tolerance:
        return PcpgResult(
            lam=lam,
            iterations=0,
            converged=True,
            residual_norms=norms,
            final_residual=r,
            residual_history=norms[:residual_history],
        )

    converged = False
    k = 0
    deltas: list[float] = []
    betas: list[float] = []
    # Scratch buffer for the axpy updates: the dual vectors are the hot-path
    # arrays of the whole solve, so the loop avoids allocating fresh
    # temporaries for ``delta * p`` / ``delta * q`` every iteration.
    scratch = np.empty_like(lam)
    for k in range(max_iterations):
        with trace_span("iteration", k=k + 1):
            q = apply_F(p)
            pq = float(p @ q)
            if pq <= 0.0:
                # Loss of positive definiteness on the constraint subspace —
                # stop and report non-convergence rather than diverging
                # silently.
                break
            delta = wy / pq
            deltas.append(delta)
            np.multiply(p, delta, out=scratch)
            lam += scratch
            np.multiply(q, delta, out=scratch)
            r -= scratch
            w_next = project(r)
            y_next = project(precondition(w_next))
            wy_next = float(w_next @ y_next)
            norm = np.sqrt(abs(wy_next))
            norms.append(norm)
            trace_event("residual", iteration=k + 1, norm=norm)
            if callback is not None:
                callback(k + 1, norm)
            if norm <= max(tolerance * norm0, absolute_tolerance):
                converged = True
                w, y, wy = w_next, y_next, wy_next
                k += 1
                break
            beta = wy_next / wy
            betas.append(beta)
            p *= beta
            p += y_next
            w, y, wy = w_next, y_next, wy_next
    else:
        k = max_iterations

    return PcpgResult(
        lam=lam,
        iterations=k,
        converged=converged,
        residual_norms=norms,
        final_residual=r,
        residual_history=norms[:residual_history],
        condition_estimate=_lanczos_condition(deltas, betas),
    )


def pcpg_block(
    apply_F_block: Callable[[np.ndarray], np.ndarray],
    apply_P: Callable[[np.ndarray], np.ndarray],
    apply_M: Callable[[np.ndarray], np.ndarray],
    d_columns: Sequence[np.ndarray],
    lambda_0_columns: Sequence[np.ndarray],
    *,
    tolerance: float = 1e-9,
    max_iterations: int = 500,
    absolute_tolerance: float = 1e-300,
    callback: Callable[[int, int, float], None] | None = None,
    apply_P_block: Callable[[np.ndarray], np.ndarray] | None = None,
    apply_M_block: Callable[[np.ndarray], np.ndarray] | None = None,
    residual_history: int = 0,
) -> list[PcpgResult]:
    """Run Algorithm 1 on ``k`` right-hand sides in lockstep.

    The recursion of :func:`pcpg` is applied to every column independently
    — each column keeps its own ``wy``/``delta``/``beta`` scalars and its
    own contiguous state vectors — but the dual-operator applications of
    all still-active columns are fused into one block call per iteration:
    ``apply_F_block`` receives an ``(n_lambda, k_active)`` matrix and must
    return ``F`` applied to each column.

    With a block operator that applies the columns one by one (the default
    :meth:`~repro.feti.operators.base.DualOperatorBase.apply_multi` path)
    the iterates are **bitwise identical** to ``k`` sequential scalar
    solves; a stacked GEMM operator trades that for one fused kernel per
    iteration at ≤1e-12 relative difference.

    Columns converge (or break down) independently: a finished column is
    masked out of subsequent block applies, so late-converging columns do
    not pay for early ones.

    Parameters
    ----------
    apply_F_block:
        The dual operator applied column-wise, ``Λ ↦ F Λ`` for an
        ``(n_lambda, k_active)`` block.
    apply_P, apply_M:
        The coarse projector and the preconditioner (vector callables,
        applied per column).
    d_columns, lambda_0_columns:
        Per-column dual right-hand sides and feasible initial iterates.
    callback:
        Optional ``callback(column, k, residual_norm)`` per column and
        iteration.
    apply_P_block, apply_M_block:
        Optional block forms of the projector / preconditioner: the
        projections and preconditioner applications of all still-active
        columns are fused into one stacked call per iteration, like the
        dual-operator block apply.  A block form that applies its columns
        independently (e.g. :meth:`~repro.feti.projector.Projector.
        apply_block`) keeps the iterates bitwise identical to the
        per-column callables.  ``None`` falls back to looping ``apply_P``
        / ``apply_M`` over the columns.
    residual_history:
        Keep the first ``residual_history`` residual norms per column on
        ``PcpgResult.residual_history`` (0 keeps none).
    """
    n_cols = len(d_columns)
    if len(lambda_0_columns) != n_cols:
        raise ValueError(
            f"{n_cols} right-hand sides but {len(lambda_0_columns)} initial iterates"
        )
    if n_cols == 0:
        return []

    # Per-column state lives in separate C-contiguous 1-D arrays (not the
    # columns of one matrix): dots and axpys on them run the exact same
    # BLAS code paths as the scalar solver, which is what makes the
    # per-column-apply mode bitwise equal to sequential solves.
    lam = [np.array(l0, dtype=float, copy=True) for l0 in lambda_0_columns]
    tol = [0.0] * n_cols
    iterations = [0] * n_cols
    converged = [False] * n_cols
    norms: list[list[float]] = [[] for _ in range(n_cols)]
    deltas: list[list[float]] = [[] for _ in range(n_cols)]
    betas: list[list[float]] = [[] for _ in range(n_cols)]

    def over_columns(name, apply, apply_block, columns: list[np.ndarray]) -> list[np.ndarray]:
        """``apply`` over columns, fused into one stacked call if available."""
        with trace_span(name, columns=len(columns)):
            if apply_block is None or not columns:
                return [apply(c) for c in columns]
            block = apply_block(np.column_stack(columns))
            return [np.ascontiguousarray(block[:, i]) for i in range(len(columns))]

    def project(columns: list[np.ndarray]) -> list[np.ndarray]:
        return over_columns("project", apply_P, apply_P_block, columns)

    def precondition(columns: list[np.ndarray]) -> list[np.ndarray]:
        return over_columns("precondition", apply_M, apply_M_block, columns)

    r0_block = apply_F_block(np.column_stack(lam))
    r = [
        np.asarray(d_columns[j], dtype=float) - np.ascontiguousarray(r0_block[:, j])
        for j in range(n_cols)
    ]
    w = project(r)
    y = project(precondition(w))
    p = [y[j].copy() for j in range(n_cols)]
    wy = [float(w[j] @ y[j]) for j in range(n_cols)]

    active: list[int] = []
    for j in range(n_cols):
        norm0 = np.sqrt(abs(wy[j]))
        norms[j].append(norm0)
        tol[j] = max(tolerance * norm0, absolute_tolerance)
        if norm0 <= absolute_tolerance:
            converged[j] = True
        else:
            active.append(j)

    scratch = [np.empty_like(lam[j]) for j in range(n_cols)]
    for k in range(max_iterations):
        if not active:
            break
        with trace_span("block_iteration", k=k + 1, active=len(active)):
            q_block = apply_F_block(np.column_stack([p[j] for j in active]))
            # Phase 1: per-column direction/step updates, collecting the
            # columns that survive the positive-definiteness check.
            updating: list[int] = []
            for pos, j in enumerate(active):
                q = np.ascontiguousarray(q_block[:, pos])
                pq = float(p[j] @ q)
                if pq <= 0.0:
                    # Loss of positive definiteness on this column only — the
                    # remaining columns keep iterating.
                    iterations[j] = k
                    continue
                delta = wy[j] / pq
                deltas[j].append(delta)
                np.multiply(p[j], delta, out=scratch[j])
                lam[j] += scratch[j]
                np.multiply(q, delta, out=scratch[j])
                r[j] -= scratch[j]
                updating.append(j)
            # Phase 2: the projections / preconditioner applications of all
            # updated columns, fused into stacked calls where block forms
            # exist.
            w_nexts = project([r[j] for j in updating])
            y_nexts = project(precondition(w_nexts))
            # Phase 3: per-column convergence checks and direction updates.
            still_active: list[int] = []
            for j, w_next, y_next in zip(updating, w_nexts, y_nexts):
                wy_next = float(w_next @ y_next)
                norm = np.sqrt(abs(wy_next))
                norms[j].append(norm)
                trace_event("residual", column=j, iteration=k + 1, norm=norm)
                if callback is not None:
                    callback(j, k + 1, norm)
                if norm <= tol[j]:
                    converged[j] = True
                    iterations[j] = k + 1
                    continue
                beta = wy_next / wy[j]
                betas[j].append(beta)
                p[j] *= beta
                p[j] += y_next
                wy[j] = wy_next
                still_active.append(j)
            active = still_active
    for j in active:
        iterations[j] = max_iterations

    return [
        PcpgResult(
            lam=lam[j],
            iterations=iterations[j],
            converged=converged[j],
            residual_norms=norms[j],
            final_residual=r[j],
            residual_history=norms[j][:residual_history],
            condition_estimate=_lanczos_condition(deltas[j], betas[j]),
        )
        for j in range(n_cols)
    ]
