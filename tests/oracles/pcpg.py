"""Test oracle: Algorithm 1 for one right-hand side, as the library ran it.

:func:`repro.feti.pcpg.pcpg` runs every column of a solve in one lockstep
loop over per-column state.  This is the scalar loop it replaced, kept as
written (less its unused per-iteration callback): one column, its applies
vector to vector.  A one-column solve through the library must equal it
bitwise in ``λ``, the residual norms and the iteration count when both are
driven by the same operators.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.feti.pcpg import PcpgResult, _exact_start
from repro.observe.trace import trace_event, trace_span, tracing_active

__all__ = ["pcpg"]


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
        ``sqrt(wᵀ y)`` with respect to its initial value.  A ``λ₀`` whose
        projected residual is already within ``tolerance · ‖d‖`` counts as
        converged in zero iterations.
    max_iterations:
        Hard iteration cap.
    absolute_tolerance:
        Absolute floor on the same quantity (protects against a zero initial
        residual).
    residual_history:
        Keep the first ``residual_history`` residual norms on
        ``PcpgResult.residual_history`` (0 keeps none).
    """

    traced = tracing_active()
    if traced:

        def project(v: np.ndarray) -> np.ndarray:
            with trace_span("project"):
                return apply_P(v)

        def precondition(v: np.ndarray) -> np.ndarray:
            with trace_span("precondition"):
                return apply_M(v)

    else:
        # No trace is live: the operators are called directly.
        project, precondition = apply_P, apply_M

    lam = np.array(lambda_0, dtype=float, copy=True)
    r = d - apply_F(lam)
    w = project(r)
    y = project(precondition(w))
    p = y.copy()

    wy = float(w @ y)
    norm0 = np.sqrt(abs(wy))
    norms = [norm0]
    if norm0 <= absolute_tolerance or _exact_start(w, d, tolerance):
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
            if not pq > 0.0:
                # Loss of positive definiteness on the constraint subspace,
                # or a NaN from non-finite data — stop and report
                # non-convergence rather than iterating to the cap.
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
            if traced:
                trace_event("residual", iteration=k + 1, norm=norm)
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
        deltas=deltas,
        betas=betas,
    )
