"""The Total FETI solver and the multi-step simulation driver.

:class:`FetiSolver` wires together the dual operator (any Table-III
approach), the coarse projector, a dual preconditioner and the PCPG
iteration, and recovers the primal solution.  :class:`MultiStepDriver`
implements Algorithm 2 of the paper: preparation once, then per time step a
FETI preprocessing followed by the PCPG solve, with the dual-operator timing
collected per phase so that the amortization analysis of Figures 6/7 can be
computed from a real run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.analysis.timing import PhaseTiming
from repro.feti.operators import make_dual_operator
from repro.feti.operators.base import DualOperatorBase
from repro.feti.pcpg import PcpgResult, pcpg, pcpg_block
from repro.feti.preconditioner import (
    DirichletPreconditioner,
    IdentityPreconditioner,
    LumpedPreconditioner,
    PreconditionerKind,
)
from repro.feti.problem import FetiProblem
from repro.feti.projector import Projector, build_projector
from repro.memory.precision import resolve_precision
from repro.observe.convergence import ConvergenceReport
from repro.observe.trace import trace_span
from repro.sparse.cache import PatternCache

if TYPE_CHECKING:  # imported lazily at runtime (repro.api imports repro.feti)
    from repro.api.spec import SolverSpec

__all__ = [
    "PreconditionerKind",
    "FetiSolution",
    "FetiSolver",
    "MultiStepDriver",
]


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
    #: Convergence telemetry of the PCPG solve (iteration count, residual
    #: trajectory when ``SolverSpec.residual_history`` opts in, and
    #: defect-correction rounds).
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
        executor=None,
    ) -> None:
        from repro.api.spec import SolverSpec

        self.problem = problem
        spec = SolverSpec.of(options)
        self.spec = spec
        #: Normalized options (always a :class:`SolverSpec` since PR 4).
        self.options = spec
        if executor is None and spec.execution is not None:
            # A spec-declared execution backend works without a Session:
            # the solver falls back to the process-shared executor pool.
            from repro.runtime.executor import shared_executor

            executor = shared_executor(spec.execution)
        #: Resolved factor-storage policy (see :mod:`repro.memory.precision`).
        self.precision = resolve_precision(spec.precision)
        self.operator: DualOperatorBase = make_dual_operator(
            spec.approach,
            problem,
            machine_config=spec.machine_config(),
            assembly_config=spec.resolve_assembly(problem),
            pattern_cache=pattern_cache,
            executor=executor,
            precision=spec.precision,
        )
        self._projector: Projector | None = None
        self._preconditioner = None
        self._prepared = False

    # ------------------------------------------------------------------ #
    @property
    def projector(self) -> Projector:
        """The coarse projector (built lazily: callers that only need the
        dual operator — e.g. the bench runner — never assemble ``G``)."""
        if self._projector is None:
            self._projector = build_projector(self.problem)
        return self._projector

    @property
    def preconditioner(self):
        """The dual preconditioner selected by the spec (built lazily)."""
        if self._preconditioner is None:
            kind = self.spec.preconditioner
            if kind is PreconditionerKind.NONE:
                cls = IdentityPreconditioner
            elif kind is PreconditionerKind.LUMPED:
                cls = LumpedPreconditioner
            else:
                cls = DirichletPreconditioner
            self._preconditioner = cls(self.problem)
        return self._preconditioner

    def prepare(self) -> PhaseTiming:
        """Run the preparation phase of the dual operator."""
        timing = self.operator.prepare()
        self._prepared = True
        return timing

    def preprocess(self) -> PhaseTiming:
        """Run the per-time-step FETI preprocessing.

        An already-built preconditioner is refreshed in place (same object,
        new values), so it follows the stiffness exactly when the
        factorization does; its wall time is not part of the simulated ledger.
        """
        if not self._prepared:
            self.prepare()
        timing = self.operator.preprocess()
        if self._preconditioner is not None:
            self._preconditioner.refresh()
        return timing

    def solve(self, reuse_preprocessing: bool = False) -> FetiSolution:
        """Solve the dual problem with PCPG and recover the primal solution.

        Parameters
        ----------
        reuse_preprocessing:
            Skip the preprocessing phase if it already ran for the current
            stiffness values (used by callers that manage Algorithm 2
            themselves).
        """
        if reuse_preprocessing and self.operator.ledger.last("preprocessing"):
            preprocessing = self.operator.ledger.last("preprocessing")
        else:
            preprocessing = self.preprocess()

        with trace_span("dual_rhs"):
            d = self.operator.dual_rhs()
            e = self.problem.compute_e()
        coarse_before = self.projector.seconds
        with trace_span("coarse_setup", n_kernel=self.projector.n_kernel):
            lambda_0 = self.projector.initial_lambda(e)

        self.operator.ledger.mark("apply")
        with trace_span("pcpg", tolerance=self.spec.tolerance):
            result = pcpg(
                apply_F=self.operator.apply,
                apply_P=self.projector.apply,
                apply_M=self.preconditioner.apply,
                d=d,
                lambda_0=lambda_0,
                tolerance=self.spec.tolerance,
                max_iterations=self.spec.max_iterations,
                absolute_tolerance=self.spec.absolute_tolerance,
                residual_history=self.spec.residual_history,
            )
        dual_apply_seconds = self.operator.ledger.since_mark()
        if self.precision.dual_refine_rounds:
            with trace_span("defect_correction"):
                result = self._dual_defect_correction(d, result)

        with trace_span("primal_recovery"):
            residual = (
                result.final_residual
                if result.final_residual is not None
                else d - self.operator.apply(result.lam)
            )
            alpha = self.projector.alpha(residual)
            primal = self.operator.primal_solution(result.lam, alpha)
        return FetiSolution(
            lam=result.lam,
            alpha=alpha,
            primal=primal,
            pcpg=result,
            preprocessing=preprocessing,
            dual_apply_seconds=dual_apply_seconds,
            coarse_seconds=self.projector.seconds - coarse_before,
            convergence=ConvergenceReport.from_pcpg(result, self.spec.tolerance),
        )

    def _dual_defect_correction(self, d: np.ndarray, result: PcpgResult) -> PcpgResult:
        """Drive the true dual residual of fp32-stored operators to fp64 level.

        With fp32-resident packs the fast PCPG applies carry single-precision
        rounding, so the true residual stalls near 1e-7 relative no matter
        the tolerance.  The fix is classical defect correction on the dual
        system: measure ``r = d − F λ`` with the accurate operator
        (:meth:`~repro.feti.operators.base.DualOperatorBase.apply_accurate`,
        refined fp64 solves) and re-solve the correction equation
        ``F δ = r`` with the same cheap operator — ``G δ = 0`` holds for the
        correction, so ``λ + δ`` stays feasible.  Approaches whose applies
        already run through refined CPU solves (the implicit ones) pass the
        first residual check and exit in zero correction rounds.
        """
        lam = result.lam
        apply_P = self.projector.apply
        norm0 = float(np.linalg.norm(apply_P(d)))
        target = max(self.spec.tolerance * norm0, self.spec.absolute_tolerance)
        residual = d - self.operator.apply_accurate(lam)
        iterations = result.iterations
        converged = result.converged
        norms = list(result.residual_norms)
        rounds = 0
        for _ in range(self.precision.dual_refine_rounds):
            if float(np.linalg.norm(apply_P(residual))) <= target:
                converged = True
                break
            correction = pcpg(
                apply_F=self.operator.apply,
                apply_P=apply_P,
                apply_M=self.preconditioner.apply,
                d=residual,
                lambda_0=np.zeros_like(lam),
                tolerance=self.spec.tolerance,
                max_iterations=self.spec.max_iterations,
                absolute_tolerance=self.spec.absolute_tolerance,
            )
            lam = lam + correction.lam
            iterations += correction.iterations
            norms.extend(correction.residual_norms)
            converged = correction.converged
            residual = d - self.operator.apply_accurate(lam)
            rounds += 1
        return replace(
            result,
            lam=lam,
            iterations=iterations,
            converged=converged,
            residual_norms=norms,
            final_residual=residual,
            residual_history=norms[: self.spec.residual_history],
            defect_rounds=result.defect_rounds + rounds,
        )

    def solve_many(
        self,
        loads_columns: "Sequence[list[np.ndarray] | None]",
        *,
        stacked: bool = False,
        reuse_preprocessing: bool = False,
    ) -> list[FetiSolution]:
        """Solve one problem under many load cases in a single block PCPG.

        The preprocessing (factorizations, explicit assembly, GPU uploads)
        runs **once**; the dual-operator applications of all still-active
        columns are fused into one :meth:`~repro.feti.operators.base.
        DualOperatorBase.apply_multi` call per iteration.  With the default
        per-column apply the solutions are bitwise identical to sequential
        :meth:`solve` calls; ``stacked=True`` uses the operator's stacked
        GEMM path (one fused kernel per cluster per iteration, ≤1e-12
        relative difference) where available.

        Parameters
        ----------
        loads_columns:
            One entry per right-hand side: either ``None`` (the problem's
            current load vectors) or a list of per-subdomain load vectors
            in ``problem.subdomains`` order.
        stacked:
            Ask the operator for its stacked multi-RHS kernel instead of
            the bitwise per-column loop.
        reuse_preprocessing:
            As in :meth:`solve`.
        """
        if reuse_preprocessing and self.operator.ledger.last("preprocessing"):
            preprocessing = self.operator.ledger.last("preprocessing")
        else:
            preprocessing = self.preprocess()

        subdomains = self.problem.subdomains
        base_f = [sub.f for sub in subdomains]

        def install(loads: "list[np.ndarray] | None") -> None:
            if loads is None:
                for sub, f0 in zip(subdomains, base_f):
                    sub.f = f0
            else:
                if len(loads) != len(subdomains):
                    raise ValueError(
                        f"expected {len(subdomains)} load vectors, got {len(loads)}"
                    )
                for sub, f in zip(subdomains, loads):
                    sub.f = f

        n_cols = len(loads_columns)
        self.operator.ledger.mark("apply", "apply_multi")
        coarse_before = self.projector.seconds
        try:
            d_cols: list[np.ndarray] = []
            lambda_0_cols: list[np.ndarray] = []
            for loads in loads_columns:
                install(loads)
                d_cols.append(self.operator.dual_rhs())
                e = self.problem.compute_e()
                lambda_0_cols.append(self.projector.initial_lambda(e))

            def apply_F_block(block: np.ndarray) -> np.ndarray:
                return self.operator.apply_multi(block, stacked=stacked)

            with trace_span("pcpg", columns=n_cols, stacked=stacked):
                results = pcpg_block(
                    apply_F_block=apply_F_block,
                    apply_P=self.projector.apply,
                    apply_M=self.preconditioner.apply,
                    apply_P_block=self.projector.apply_block,
                    apply_M_block=self.preconditioner.apply_block,
                    d_columns=d_cols,
                    lambda_0_columns=lambda_0_cols,
                    tolerance=self.spec.tolerance,
                    max_iterations=self.spec.max_iterations,
                    absolute_tolerance=self.spec.absolute_tolerance,
                    residual_history=self.spec.residual_history,
                )
            total_apply_seconds = self.operator.ledger.since_mark()
            if self.precision.dual_refine_rounds:
                results = [
                    self._dual_defect_correction(d, result)
                    for d, result in zip(d_cols, results)
                ]
            # The block applies are shared work: attribute an equal share of
            # the fused apply time to every column.
            apply_share = total_apply_seconds / n_cols if n_cols else 0.0

            solutions: list[FetiSolution] = []
            coarse_share_known = False
            coarse_share = 0.0
            for loads, d, result in zip(loads_columns, d_cols, results):
                install(loads)
                residual = (
                    result.final_residual
                    if result.final_residual is not None
                    else d - self.operator.apply(result.lam)
                )
                alpha = self.projector.alpha(residual)
                primal = self.operator.primal_solution(result.lam, alpha)
                if not coarse_share_known:
                    # Coarse work (projections + coarse solves) is shared
                    # across the block like the fused applies; the alpha
                    # recoveries after this point are per-column noise.
                    coarse_share = (
                        (self.projector.seconds - coarse_before) / n_cols
                        if n_cols
                        else 0.0
                    )
                    coarse_share_known = True
                solutions.append(
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
                )
            return solutions
        finally:
            for sub, f0 in zip(subdomains, base_f):
                sub.f = f0


@dataclass
class StepRecord:
    """Timing and convergence record of one simulation step."""

    step: int
    iterations: int
    converged: bool
    preprocessing_seconds: float
    apply_seconds: float

    @property
    def dual_operator_seconds(self) -> float:
        """Total dual-operator time of the step (preprocessing + iterations)."""
        return self.preprocessing_seconds + self.apply_seconds


class MultiStepDriver:
    """Algorithm 2: a multi-step simulation with per-step FETI preprocessing.

    Parameters
    ----------
    solver:
        The FETI solver (its dual operator is reused across steps, so the
        symbolic factorizations and persistent GPU structures are set up
        only once).
    update:
        Optional callback ``update(step, problem)`` invoked before every
        step; it may modify the numerical values of the subdomain matrices
        and load vectors (the sparsity pattern must stay fixed, as in the
        paper's use case).
    """

    def __init__(
        self,
        solver: FetiSolver,
        update: Callable[[int, FetiProblem], None] | None = None,
    ) -> None:
        self.solver = solver
        self.update = update
        self.records: list[StepRecord] = []
        #: Full solution of the most recent step (records keep only timings).
        self.last_solution: FetiSolution | None = None

    def run(self, n_steps: int) -> list[StepRecord]:
        """Run ``n_steps`` time steps and return their records."""
        self.solver.prepare()
        for step in range(n_steps):
            if self.update is not None:
                self.update(step, self.solver.problem)
            solution = self.solver.solve()
            self.last_solution = solution
            self.records.append(
                StepRecord(
                    step=step,
                    iterations=solution.iterations,
                    converged=solution.converged,
                    preprocessing_seconds=solution.preprocessing.simulated_seconds,
                    apply_seconds=solution.dual_apply_seconds,
                )
            )
        return self.records

    @property
    def total_dual_operator_seconds(self) -> float:
        """Total simulated dual-operator time over all steps."""
        return sum(r.dual_operator_seconds for r in self.records)
