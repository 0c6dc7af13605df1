"""The Total FETI solver and the multi-step simulation driver.

:class:`FetiSolver` wires together the dual operator (any Table-III
approach), the coarse projector, a dual preconditioner and the one PCPG
loop — vector applies for one right-hand side, block applies for many —
and recovers the primal solution.  :class:`MultiStepDriver`
implements Algorithm 2 of the paper: preparation once, then per time step a
FETI preprocessing (skipped when the step's stiffness values are the ones
already factored) followed by the PCPG solve, with the dual-operator timing
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
from repro.feti.pcpg import PcpgResult, pcpg, per_column, stacked
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
    "StepValues",
    "Update",
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
        #: The ``K`` values of the last preprocessing (for a lumped ``M``).
        self._K: Sequence[np.ndarray] | None = None

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
                if dirichlet:
                    self._preconditioner = DirichletPreconditioner(self.problem, self.operator)
                elif kind is PreconditionerKind.LUMPED:
                    self._preconditioner = LumpedPreconditioner(self.problem, self._K)
                else:
                    self._preconditioner = IdentityPreconditioner(self.problem)
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

    def preprocess(
        self,
        K: Sequence[np.ndarray] | None = None,
        K_reg: Sequence[np.ndarray] | None = None,
    ) -> PhaseTiming:
        """Run the per-time-step FETI preprocessing at the stiffness values
        ``K`` and ``K_reg`` (:meth:`~repro.feti.problem.FetiProblem.stiffness`;
        ``None``: the built ones).

        The operator factors ``K_reg``.  An already-built preconditioner is
        refreshed in place (same object, new values), so it follows the
        stiffness exactly when the factorization does; its wall time is not
        part of the simulated ledger.  It releases its old blocks first:
        they never coexist with the preprocessing's Schur workspace.
        """
        if not self._prepared:
            self.prepare()
        if self._preconditioner is not None:
            self._preconditioner.release()
        timing = self.operator.preprocess(K_reg)
        self._K = K
        if self._preconditioner is not None:
            self._preconditioner.refresh(K)
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
        **once**; ``d``, ``e`` and ``λ₀`` are computed per column.  Every
        solve runs the one PCPG loop (:func:`~repro.feti.pcpg.pcpg`),
        choosing its applies once from the number of columns.  One column
        applies ``F``, ``P`` and ``M`` through their vector ``apply``.  More
        columns apply all still-active columns through one block call each
        iteration: ``F`` by one fused
        :meth:`~repro.feti.operators.base.DualOperator.apply_multi` (one
        GEMM over the pack and one per large block on the explicit
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

        # One column applies vector by vector; more apply every iteration's
        # active columns as one block (one fused GEMM on ``expl *``).
        if n_cols == 1:
            adapt = per_column
            applies = (operator.apply, projector.apply, preconditioner.apply)
        else:
            adapt = stacked
            applies = (operator.apply_multi, projector.apply_block, preconditioner.apply_block)
        apply_F, apply_P, apply_M = map(adapt, applies)
        operator.ledger.mark("apply", "apply_multi")
        with trace_span("pcpg", columns=n_cols):
            results = pcpg(
                apply_F,
                apply_P,
                apply_M,
                d_cols,
                lambda_0_cols,
                tolerance=self.spec.tolerance,
                max_iterations=self.spec.max_iterations,
                absolute_tolerance=self.spec.absolute_tolerance,
                residual_history=self.spec.residual_history,
            )
        # The block applies are shared work: each column gets an equal share.
        apply_share = operator.ledger.since_mark() / n_cols if n_cols else 0.0

        with trace_span("primal_recovery"):
            alphas, primals = [], []
            for loads, result in zip(loads_columns, results):
                alphas.append(projector.alpha(result.final_residual))
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


@dataclass(frozen=True)
class StepValues:
    """What one step of a :class:`MultiStepDriver` schedule solves at.

    ``loads`` are one vector per subdomain; ``K`` and ``K_reg`` one
    ``(members, nnz)`` array per shape group, on its fixed pattern (the
    layout of :meth:`~repro.feti.problem.FetiProblem.stiffness`).  ``None``
    is the problem's own: the subdomains' current ``f``, the built values.
    """

    loads: list[np.ndarray] | None = None
    K: Sequence[np.ndarray] | None = None
    K_reg: Sequence[np.ndarray] | None = None


#: A schedule's ``update(step, problem)``: the step's values, its loads or ``None``.
Update = Callable[[int, FetiProblem], "StepValues | list[np.ndarray] | None"]


def _same(a: list[np.ndarray], b: list[np.ndarray]) -> bool:
    """Whether two per-group value lists are equal (the same arrays unread)."""
    return all(x is y or np.array_equal(x, y) for x, y in zip(a, b))


class MultiStepDriver:
    """Algorithm 2: a multi-step simulation with per-step FETI preprocessing.

    A step solves at the values its ``update`` returns; nothing is written
    into the (read-only) problem.  It preprocesses only when its stiffness
    values differ from the ones the factors hold: a step that returns none
    while the factors hold the built ones reuses them and ``F̃ᵢ`` without
    reading any array.  The first step of every :meth:`run` preprocesses.

    Parameters
    ----------
    solver:
        The FETI solver (its dual operator is reused across steps, so the
        symbolic factorizations and persistent GPU structures are set up
        only once).
    update:
        Optional callback ``update(step, problem)`` invoked before every
        step.  It returns ``None`` (the subdomains' current ``f`` and the
        built stiffness), the step's loads (one vector per subdomain), or a
        :class:`StepValues` with its loads and ``K`` / ``K_reg`` values (the
        sparsity pattern stays fixed, as in the paper's use case).  The
        driver keeps the returned arrays its factors hold, uncopied: a step
        returns new arrays rather than writing those of an earlier step.
    """

    def __init__(self, solver: FetiSolver, update: Update | None = None) -> None:
        self.solver = solver
        self.update = update
        self.records: list[StepRecord] = []
        #: Full solution of the most recent step (records keep only timings).
        self.last_solution: FetiSolution | None = None
        # The (K, K_reg) values, per shape group, of the last preprocessing.
        self._factored: tuple[list[np.ndarray], list[np.ndarray]] | None = None

    def _stiffness(self, K=None, K_reg=None) -> tuple[list[np.ndarray], list[np.ndarray]]:
        problem = self.solver.problem
        return problem.stiffness("K", K), problem.stiffness("K_reg", K_reg)

    def factors_current(self) -> bool:
        """Whether the driver's last preprocessing factored the built
        stiffness values (``False`` before one ran)."""
        return self._factored is not None and all(
            map(_same, self._factored, self._stiffness())
        )

    def run(self, n_steps: int) -> list[StepRecord]:
        """Run ``n_steps`` time steps and return their records."""
        solver = self.solver
        if not solver._prepared:
            solver.prepare()
        self._factored = None
        for step in range(n_steps):
            values = self.update(step, solver.problem) if self.update is not None else None
            if not isinstance(values, StepValues):
                values = StepValues(loads=values)
            stiffness = self._stiffness(values.K, values.K_reg)
            reuse = (
                self._factored is not None
                and solver.operator.preprocessed
                and all(map(_same, self._factored, stiffness))
            )
            if not reuse:
                self._factored = None  # a failed preprocessing leaves no record
                solver.preprocess(*stiffness)
                self._factored = stiffness
            solution = solver.solve(reuse_preprocessing=True, loads=values.loads)
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
