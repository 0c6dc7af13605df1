"""The Total FETI solver and the multi-step simulation driver.

:class:`FetiSolver` wires together the dual operator (any Table-III
approach), the coarse projector, a dual preconditioner and the PCPG
iteration, and recovers the primal solution.  :class:`MultiStepDriver`
implements Algorithm 2 of the paper: preparation once, then per time step a
FETI preprocessing (skipped when the step left every ``Kᵢ`` unchanged)
followed by the PCPG solve, with the dual-operator timing
collected per phase so that the amortization analysis of Figures 6/7 can be
computed from a real run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.analysis.timing import PhaseTiming
from repro.feti.operators import make_dual_operator
from repro.feti.operators.base import DualOperator
from repro.feti.pcpg import PcpgResult, pcpg, pcpg_block
from repro.feti.preconditioner import (
    DirichletPreconditioner,
    IdentityPreconditioner,
    LumpedPreconditioner,
    PreconditionerKind,
)
from repro.feti.problem import FetiProblem
from repro.feti.projector import Projector, build_projector
from repro.observe.convergence import ConvergenceReport
from repro.observe.trace import trace_span
from repro.runtime.executor import ExecutionSpec
from repro.sparse.cache import PatternCache

if TYPE_CHECKING:  # imported lazily at runtime (repro.api imports repro.feti)
    from repro.api.spec import SolverSpec

__all__ = [
    "PreconditionerKind",
    "FetiSolution",
    "FetiSolver",
    "MultiStepDriver",
]

#: The preconditioner class of every kind that needs only the problem.
_PRECONDITIONERS = {
    PreconditionerKind.NONE: IdentityPreconditioner,
    PreconditionerKind.LUMPED: LumpedPreconditioner,
}


@dataclass
class FetiSolution:
    """Result of one FETI solve."""

    lam: np.ndarray
    alpha: np.ndarray
    primal: list[np.ndarray]
    pcpg: PcpgResult
    preprocessing: PhaseTiming
    #: Simulated seconds of the dual-operator work inside PCPG.
    dual_apply_seconds: float
    #: Wall seconds of the coarse-problem work (projections, coarse solves)
    #: attributable to this solve.
    coarse_seconds: float = 0.0
    #: Convergence telemetry of the PCPG solve (iteration count, and the
    #: residual trajectory when ``SolverSpec.residual_history`` opts in).
    convergence: ConvergenceReport | None = None

    @property
    def iterations(self) -> int:
        """PCPG iteration count."""
        return self.pcpg.iterations

    @property
    def converged(self) -> bool:
        """Whether PCPG reached its tolerance."""
        return self.pcpg.converged

    @property
    def residual_history(self) -> list[float]:
        """Capped per-iteration residual norms (empty unless opted in)."""
        return self.pcpg.residual_history


class FetiSolver:
    """Total FETI solver driven by a configurable dual operator.

    Parameters
    ----------
    problem:
        The torn FETI problem.
    options:
        A :class:`repro.api.SolverSpec` (or a spec preset name).
    pattern_cache:
        Optional :class:`~repro.sparse.cache.PatternCache` shared across
        solvers — a :class:`repro.api.Session` passes its own so symbolic
        analysis is amortized across workloads; ``None`` keeps the
        process-global cache of the sparse layer.
    """

    def __init__(
        self,
        problem: FetiProblem,
        options: "SolverSpec | str | None" = None,
        *,
        pattern_cache: PatternCache | None = None,
    ) -> None:
        from repro.api.spec import SolverSpec

        self.problem = problem
        spec = SolverSpec.of(options)
        self.spec = spec
        #: Normalized options (always a :class:`SolverSpec` since PR 4).
        self.options = spec
        self.operator: DualOperator = make_dual_operator(
            spec.approach,
            problem,
            machine_config=spec.machine_config(),
            assembly_config=spec.resolve_assembly(problem),
            pattern_cache=pattern_cache,
            workers=ExecutionSpec.of(spec.execution).workers,
            precision=spec.precision,
        )
        self._projector: Projector | None = None
        self._preconditioner = None
        self._prepared = False

    # ------------------------------------------------------------------ #
    @property
    def projector(self) -> Projector:
        """The coarse projector (built lazily, under a ``coarse_build`` span:
        callers that only need the dual operator — e.g. the bench runner —
        never assemble ``G``)."""
        if self._projector is None:
            with trace_span("coarse_build"):
                self._projector = build_projector(self.problem)
        return self._projector

    @property
    def preconditioner(self):
        """The dual preconditioner selected by the spec (built lazily, under a
        ``preconditioner_build`` span).

        The Dirichlet preconditioner reads its ``Sᵢ`` off the preprocessed
        dual operator, so building it first runs a preprocessing where none
        is resident.
        """
        if self._preconditioner is None:
            kind = self.spec.preconditioner
            dirichlet = kind is PreconditionerKind.DIRICHLET
            if dirichlet and not self.operator.preprocessed:
                self.preprocess()
            with trace_span("preconditioner_build"):
                self._preconditioner = (
                    DirichletPreconditioner(self.problem, self.operator)
                    if dirichlet
                    else _PRECONDITIONERS[kind](self.problem)
                )
        return self._preconditioner

    def _pcpg_inputs(self) -> tuple[Projector, object]:
        """The projector and the preconditioner, built before PCPG starts.

        A cold solve's build spans are then children of the solve, not of
        ``pcpg``; a warm solve finds both built and opens no span.
        """
        return self.projector, self.preconditioner

    def prepare(self) -> PhaseTiming:
        """Run the preparation phase of the dual operator."""
        timing = self.operator.prepare()
        self._prepared = True
        return timing

    def preprocess(self) -> PhaseTiming:
        """Run the per-time-step FETI preprocessing.

        An already-built preconditioner is refreshed in place (same object,
        new values), so it follows the stiffness exactly when the
        factorization does; its wall time is not part of the simulated
        ledger.  It releases its old blocks first: they never coexist with
        the preprocessing's Schur workspace.
        """
        if not self._prepared:
            self.prepare()
        if self._preconditioner is not None:
            self._preconditioner.release()
        timing = self.operator.preprocess()
        if self._preconditioner is not None:
            self._preconditioner.refresh()
        return timing

    def release(self) -> None:
        """Drop what :meth:`preprocess` rebuilds: the dual operator's factors
        and ``F̃ᵢ`` and the preconditioner's blocks.  The next solve
        preprocesses again."""
        self.operator.release()
        if self._preconditioner is not None:
            self._preconditioner.release()

    def solve(
        self, reuse_preprocessing: bool = False, loads: list[np.ndarray] | None = None
    ) -> FetiSolution:
        """Solve the dual problem with PCPG and recover the primal solution:
        :meth:`solve_many` of the one column ``loads``.

        Parameters
        ----------
        reuse_preprocessing:
            Skip the preprocessing phase while the operator still holds
            the factors of one (used by callers that manage Algorithm 2
            themselves, and by the session, which releases the factors of
            an entry they no longer match).
        loads:
            One load vector per subdomain, or ``None`` for the problem's
            current ``f``.
        """
        return self.solve_many([loads], reuse_preprocessing=reuse_preprocessing)[0]

    def solve_many(
        self,
        loads_columns: "Sequence[list[np.ndarray] | None]",
        *,
        reuse_preprocessing: bool = False,
    ) -> list[FetiSolution]:
        """Solve one problem under many load cases over one preprocessing.

        The loads are arguments: no solve writes a subdomain's ``f``.  The
        preprocessing (factorizations, explicit assembly, GPU uploads) runs
        **once**; ``d``, ``e`` and ``λ₀`` are computed per column.  One
        column runs the scalar PCPG on ``apply``.  More columns run one
        block PCPG that applies ``F`` to all still-active columns in one
        fused :meth:`~repro.feti.operators.base.DualOperator.apply_multi`
        call (one GEMM over the pack and one per large block on the explicit
        approaches), so they agree with one-column solves to
        iteration-amplified rounding.

        Parameters
        ----------
        loads_columns:
            One entry per right-hand side: either ``None`` (the problem's
            current load vectors) or a list of per-subdomain load vectors
            in ``problem.subdomains`` order.  Every list is checked with
            :meth:`~repro.feti.problem.FetiProblem.check_loads` before the
            preprocessing.
        reuse_preprocessing:
            As in :meth:`solve`.
        """
        for loads in loads_columns:
            if loads is not None:
                self.problem.check_loads(loads)
        return self._solve_checked(loads_columns, reuse_preprocessing)

    def _solve_checked(
        self, loads_columns: "Sequence[list[np.ndarray] | None]", reuse_preprocessing: bool
    ) -> list[FetiSolution]:
        """:meth:`solve_many` of load columns the caller has already checked
        (the session checks a request's loads once, before its lock)."""
        if reuse_preprocessing and self.operator.preprocessed:
            preprocessing = self.operator.ledger.last("preprocessing")
        else:
            preprocessing = self.preprocess()

        n_cols = len(loads_columns)
        operator = self.operator
        with trace_span("dual_rhs"):
            d_cols = [operator.dual_rhs(loads) for loads in loads_columns]
            e_cols = [self.problem.compute_e(loads) for loads in loads_columns]
        projector, preconditioner = self._pcpg_inputs()
        coarse_before = projector.seconds
        with trace_span("coarse_setup", n_kernel=projector.n_kernel):
            lambda_0_cols = [projector.initial_lambda(e) for e in e_cols]

        stopping = dict(
            tolerance=self.spec.tolerance,
            max_iterations=self.spec.max_iterations,
            absolute_tolerance=self.spec.absolute_tolerance,
            residual_history=self.spec.residual_history,
        )
        operator.ledger.mark("apply", "apply_multi")
        if n_cols == 1:
            with trace_span("pcpg", tolerance=self.spec.tolerance):
                results = [
                    pcpg(
                        apply_F=operator.apply,
                        apply_P=projector.apply,
                        apply_M=preconditioner.apply,
                        d=d_cols[0],
                        lambda_0=lambda_0_cols[0],
                        **stopping,
                    )
                ]
        else:
            with trace_span("pcpg", columns=n_cols):
                results = pcpg_block(
                    apply_F_block=operator.apply_multi,
                    apply_P_block=projector.apply_block,
                    apply_M_block=preconditioner.apply_block,
                    d_columns=d_cols,
                    lambda_0_columns=lambda_0_cols,
                    **stopping,
                )
        # The block applies are shared work: each column gets an equal share.
        apply_share = operator.ledger.since_mark() / n_cols if n_cols else 0.0

        with trace_span("primal_recovery"):
            alphas, primals = [], []
            for loads, d, result in zip(loads_columns, d_cols, results):
                residual = (
                    result.final_residual
                    if result.final_residual is not None
                    else d - operator.apply(result.lam)
                )
                alphas.append(projector.alpha(residual))
                primals.append(operator.primal_solution(result.lam, alphas[-1], loads))
        # So is the coarse work (projections and coarse solves).
        coarse_share = (projector.seconds - coarse_before) / n_cols if n_cols else 0.0
        return [
            FetiSolution(
                lam=result.lam,
                alpha=alpha,
                primal=primal,
                pcpg=result,
                preprocessing=preprocessing,
                dual_apply_seconds=apply_share,
                coarse_seconds=coarse_share,
                convergence=ConvergenceReport.from_pcpg(
                    result, self.spec.tolerance, columns=n_cols
                ),
            )
            for result, alpha, primal in zip(results, alphas, primals)
        ]


@dataclass
class StepRecord:
    """Timing and convergence record of one simulation step."""

    step: int
    iterations: int
    converged: bool
    #: Whether this step ran the FETI preprocessing (factorization and
    #: ``F̃ᵢ`` assembly) or reused the factors of an earlier step.
    preprocessed: bool
    #: Simulated preprocessing of this step; ``0.0`` when it was reused.
    preprocessing_seconds: float
    apply_seconds: float

    @property
    def dual_operator_seconds(self) -> float:
        """Total dual-operator time of the step (preprocessing + iterations)."""
        return self.preprocessing_seconds + self.apply_seconds


class MultiStepDriver:
    """Algorithm 2: a multi-step simulation with per-step FETI preprocessing.

    A step preprocesses only when its ``update`` changed a stiffness value:
    the driver compares every subdomain's ``K.data`` and ``K_reg.data``
    with the values its last preprocessing factored, and a load-only step
    reuses those factors and ``F̃ᵢ``.  The first step of every :meth:`run`
    always preprocesses.

    Parameters
    ----------
    solver:
        The FETI solver (its dual operator is reused across steps, so the
        symbolic factorizations and persistent GPU structures are set up
        only once).
    update:
        Optional callback ``update(step, problem)`` invoked before every
        step.  It may return the step's loads (one vector per subdomain),
        which the step solves at without writing them anywhere; ``None``
        solves at the subdomains' current ``f``.  It may also modify the
        numerical values of the subdomain matrices and load vectors (the
        sparsity pattern must stay fixed, as in the paper's use case).
    """

    def __init__(
        self,
        solver: FetiSolver,
        update: Callable[[int, FetiProblem], list[np.ndarray] | None] | None = None,
    ) -> None:
        self.solver = solver
        self.update = update
        self.records: list[StepRecord] = []
        #: Full solution of the most recent step (records keep only timings).
        self.last_solution: FetiSolution | None = None
        # (K.data, K_reg.data) per subdomain as of the last preprocessing.
        self._factored: list[tuple[np.ndarray, np.ndarray]] | None = None

    def factors_current(self) -> bool:
        """Whether every ``Kᵢ`` / ``K_reg,ᵢ`` still holds the values the
        driver's last preprocessing factored (``False`` before one ran)."""
        return self._factored is not None and all(
            np.array_equal(sub.csr_arrays("K")[0], K)
            and np.array_equal(sub.csr_arrays("K_reg")[0], K_reg)
            for sub, (K, K_reg) in zip(self.solver.problem.subdomains, self._factored)
        )

    def run(self, n_steps: int) -> list[StepRecord]:
        """Run ``n_steps`` time steps and return their records."""
        if not self.solver._prepared:
            self.solver.prepare()
        subdomains = self.solver.problem.subdomains
        self._factored = None
        for step in range(n_steps):
            loads = None
            if self.update is not None:
                loads = self.update(step, self.solver.problem)
            reuse = self.factors_current()
            if not reuse:
                self._factored = None  # a failed preprocessing leaves no record
            solution = self.solver.solve(reuse_preprocessing=reuse, loads=loads)
            if not reuse:
                self._factored = [
                    (sub.csr_arrays("K")[0].copy(), sub.csr_arrays("K_reg")[0].copy())
                    for sub in subdomains
                ]
            self.last_solution = solution
            self.records.append(
                StepRecord(
                    step=step,
                    iterations=solution.iterations,
                    converged=solution.converged,
                    preprocessed=not reuse,
                    preprocessing_seconds=(
                        0.0 if reuse else solution.preprocessing.simulated_seconds
                    ),
                    apply_seconds=solution.dual_apply_seconds,
                )
            )
        return self.records

    @property
    def total_dual_operator_seconds(self) -> float:
        """Total simulated dual-operator time over all steps."""
        return sum(r.dual_operator_seconds for r in self.records)
