"""The stateful :class:`Session`: the owner of all cross-solve state.

A session binds a default :class:`~repro.api.spec.SolverSpec` to a set of
caches that previously had no owner above a single ``FetiSolver``:

* one :class:`~repro.sparse.cache.PatternCache` shared by every solver the
  session builds, so subdomains *and workloads* with equal sparsity
  patterns pay for exactly one symbolic analysis;
* the built :class:`~repro.feti.problem.FetiProblem` instances, read-only
  and shared process-wide (a request's loads and a schedule's values are
  arguments of their solves, never written into a problem);
* the prepared :class:`~repro.feti.solver.FetiSolver` instances, keyed by
  ``(workload, spec)``, so repeated ``solve`` calls reuse symbolic and
  numeric factorizations, assembled dual operators and persistent GPU
  structures automatically.

Typical use::

    from repro.api import Session, SolverSpec, Workload

    session = Session(SolverSpec(approach="expl modern", assembly="table2"))
    solution = session.solve(Workload("heat", 2, (4, 4), 8))
    answer = session.solve_request("heat-2d-quick", rhs=2.0)   # one request
    result = session.run("elasticity-2d-multistep")   # Algorithm 2
    print(session.cache_stats())
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.api.spec import SolverSpec
from repro.api.workload import Workload, build_problem, workload_preset
from repro.feti.operators.base import DualOperator
from repro.feti.problem import FetiProblem
from repro.feti.solver import FetiSolution, FetiSolver, MultiStepDriver, StepRecord, Update
from repro.memory.ledger import measure_solver
from repro.memory.tier import FactorTier, parse_budget
from repro.observe.metrics import MetricsRegistry
from repro.observe.trace import trace_span
from repro.sparse.cache import PatternCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.queue import SolveQueue

__all__ = ["Session", "RunResult", "RequestSolution"]


@dataclass
class RunResult:
    """Everything one multi-step :meth:`Session.run` produced."""

    workload: Workload
    records: list[StepRecord] = field(default_factory=list)
    #: Solution at the final step's loads.
    solution: FetiSolution | None = None
    problem: FetiProblem | None = None

    @property
    def total_dual_operator_seconds(self) -> float:
        """Total simulated dual-operator time over all steps."""
        return sum(r.dual_operator_seconds for r in self.records)

    @property
    def converged(self) -> bool:
        """Whether every step converged."""
        return all(r.converged for r in self.records)


@dataclass
class RequestSolution:
    """The picklable answer of one :meth:`Session.solve_request`."""

    lam: np.ndarray
    alpha: np.ndarray
    primal: list[np.ndarray]
    iterations: int
    converged: bool
    preprocessing_seconds: float
    dual_apply_seconds: float
    #: Wall seconds of the coarse-problem work of this solve.
    coarse_seconds: float = 0.0

    @classmethod
    def from_solution(cls, solution: FetiSolution) -> "RequestSolution":
        return cls(
            lam=solution.lam,
            alpha=solution.alpha,
            primal=list(solution.primal),
            iterations=solution.iterations,
            converged=solution.converged,
            preprocessing_seconds=solution.preprocessing.simulated_seconds,
            dual_apply_seconds=solution.dual_apply_seconds,
            coarse_seconds=solution.coarse_seconds,
        )


class Session:
    """A cache-owning runner for declarative workloads.

    Parameters
    ----------
    spec:
        Default solver configuration (a :class:`SolverSpec`, a spec preset
        name, or ``None`` for the defaults).  Every method accepts a
        per-call ``spec`` override.
    pattern_cache:
        The structural pattern cache shared by all solvers of the session;
        a fresh private cache by default.  Pass
        :func:`repro.sparse.cache.global_pattern_cache` to share with the
        process-global one.
    memory_budget:
        Ceiling on the resident factor/pack/arena bytes of all cached
        solvers (``"64M"``, ``1.5e9``, bytes, …; see
        :func:`repro.memory.tier.parse_budget`).  When exceeded, the
        coldest entries release their factors and ``F̃ᵢ`` (their structure
        stays warm); this is transparent — the next solve of a released
        entry lazily re-runs its numeric factorization, so results never
        change.
        ``None`` (the default) consults the ``REPRO_MEMORY_BUDGET``
        environment variable; pass ``"unlimited"`` to ignore it.
    """

    def __init__(
        self,
        spec: SolverSpec | str | None = None,
        *,
        pattern_cache: PatternCache | None = None,
        memory_budget: int | float | str | None = None,
    ) -> None:
        self.spec = SolverSpec.of(spec)
        self.pattern_cache = pattern_cache if pattern_cache is not None else PatternCache()
        if memory_budget is None:
            memory_budget = os.environ.get("REPRO_MEMORY_BUDGET")
        #: The session's counters; its tier counts into it too.
        #: They are named for the ``/v1/metrics/prometheus`` family they sum
        #: into across a serve tier's session pool.
        self.metrics = MetricsRegistry()
        #: The budget-aware factor tier (LRU release of cold entries plus
        #: the byte-accurate ledger of every cached solver's storage).
        self.tier = FactorTier(parse_budget(memory_budget), self.metrics)
        counter = self.metrics.counter
        self._solves = counter("repro_pool_solves", "Right-hand sides solved")
        self._steps = counter("repro_pool_steps", "Multi-step schedule steps")
        self._solver_reuses = counter("repro_pool_solver_reuses", "Prepared-solver reuses")
        self._stacked_solves = counter("repro_pool_stacked_solves", "Multi-RHS block solves")
        self._stacked_columns = counter(
            "repro_pool_stacked_columns", "Right-hand sides of the block solves"
        )
        self._problems: dict[Workload, FetiProblem] = {}
        self._solvers: dict[tuple[Workload, SolverSpec], FetiSolver] = {}
        #: Re-entrant lock guarding every session cache, so concurrent
        #: request threads can share one session without corrupting the
        #: problem / solver maps.
        self._cache_lock = threading.RLock()
        #: Per-workload execution locks: a workload's prepared solvers are
        #: stateful, so concurrent solves of one workload — requests or
        #: direct ``solve`` calls from any number of threads — must
        #: serialize, while different workloads overlap.
        self._workload_locks: dict[Workload, threading.RLock] = {}
        #: Set by :meth:`close`: :meth:`solver` then refuses new work.
        self._closed = False

    # ------------------------------------------------------------------ #
    # Resolution                                                          #
    # ------------------------------------------------------------------ #
    @staticmethod
    def resolve_workload(workload: Workload | str | Mapping[str, Any]) -> Workload:
        """Normalize a workload, a preset name, or a ``to_dict`` mapping."""
        if isinstance(workload, Workload):
            return workload
        if isinstance(workload, str):
            return workload_preset(workload)
        if isinstance(workload, Mapping):
            return Workload.from_dict(workload)
        raise TypeError(
            "expected a Workload, a preset name or a workload dict, got "
            f"{type(workload).__name__}"
        )

    def resolve_spec(self, spec: SolverSpec | str | None) -> SolverSpec:
        """Normalize a per-call spec (``None`` = the session default)."""
        return self.spec if spec is None else SolverSpec.of(spec)

    def workload_lock(self, workload: Workload | str | Mapping[str, Any]) -> threading.RLock:
        """The session-wide execution lock of one workload.

        Re-entrant, created on demand; every in-process consumer that runs
        a solve or a schedule holds it, so concurrent requests and direct
        ``solve`` calls can never interleave on one workload's solvers.
        """
        w = self.resolve_workload(workload)
        with self._cache_lock:
            lock = self._workload_locks.get(w)
            if lock is None:
                lock = threading.RLock()
                self._workload_locks[w] = lock
            return lock

    # ------------------------------------------------------------------ #
    # Lifecycle                                                           #
    # ------------------------------------------------------------------ #
    def queue(self) -> "SolveQueue":
        """The synchronous :class:`~repro.runtime.queue.SolveQueue` facade
        over :meth:`solve_request`."""
        from repro.runtime.queue import SolveQueue

        return SolveQueue(self)

    def close(self) -> None:
        """Release every cached solver's storage and refuse new work (idempotent).

        The caches survive — a closed session can still resolve problems —
        but :meth:`solver`, and so every solve, raises.  Every cached solver
        releases its numeric storage as the memory tier's eviction does, so
        a closed session that is still referenced holds no factor, ``F̃ᵢ`` or
        preconditioner ``M``; a solver whose workload is being solved on
        another thread keeps its own.
        """
        with self._cache_lock:
            self._closed = True
            solvers = list(self._solvers.items())
        for key, solver in solvers:
            lock = self.workload_lock(key[0])
            if solver.operator.preprocessed and lock.acquire(blocking=False):
                try:
                    self._release_solver(key, solver)
                finally:
                    lock.release()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Cached constructions                                                #
    # ------------------------------------------------------------------ #
    def problem(self, workload: Workload | str | Mapping[str, Any]) -> FetiProblem:
        """The (session-cached) torn FETI problem of a workload."""
        w = self.resolve_workload(workload)
        with self._cache_lock:
            problem = self._problems.get(w)
            if problem is None:
                problem = build_problem(w)
                self._problems[w] = problem
            return problem

    def base_loads(self, workload: Workload | str | Mapping[str, Any]) -> tuple[np.ndarray, ...]:
        """The pristine (built, read-only) load vectors of a workload's problem."""
        return self.problem(workload).base_loads

    def solver(
        self,
        workload: Workload | str | Mapping[str, Any],
        spec: SolverSpec | str | None = None,
    ) -> FetiSolver:
        """The (session-cached) prepared solver of ``(workload, spec)``.

        Raises ``RuntimeError`` once the session has been closed.
        """
        w = self.resolve_workload(workload)
        s = self.resolve_spec(spec)
        key = (w, s)
        with self._cache_lock:
            if self._closed:
                raise RuntimeError("the session has been closed")
            solver = self._solvers.get(key)
            if solver is None:
                solver = FetiSolver(self.problem(w), s, pattern_cache=self.pattern_cache)
                self._solvers[key] = solver
            else:
                self._solver_reuses.inc()
                self.tier.touch(key)
            return solver

    def operator_for(
        self,
        workload: Workload | str | Mapping[str, Any],
        spec: SolverSpec | str | None = None,
    ) -> DualOperator:
        """The dual operator of ``(workload, spec)`` (built once, not yet run).

        Used by callers that drive the three phases themselves (the bench
        runner, the operator-comparison example); ``solve``/``run`` callers
        never need it.
        """
        return self.solver(workload, spec).operator

    # ------------------------------------------------------------------ #
    # Memory tiering                                                      #
    # ------------------------------------------------------------------ #
    @property
    def memory_budget_bytes(self) -> int | None:
        """The resident-bytes ceiling (``None`` = unlimited)."""
        return self.tier.budget_bytes

    def _record_usage(self, key: tuple[Workload, SolverSpec], solver: FetiSolver) -> None:
        """Account one entry's resident bytes and enforce the budget.

        Called with the workload lock held, after a solve or schedule
        succeeded.  The entry is re-measured only when its storage version
        moved since its last measurement (the solver was built,
        preprocessed or released); otherwise only its recency is refreshed.
        """
        version = solver.operator.storage_version
        if self.tier.measured(key, version):
            self.tier.touch(key)
        else:
            self.tier.record(key, measure_solver(solver), version)
        self._enforce_budget(key)

    def _enforce_budget(self, active_key: tuple[Workload, SolverSpec]) -> None:
        """Release cold entries until the ledger fits the budget.

        Walks the tier's LRU from the cold end over full entries: each
        releases its factors and ``F̃ᵢ`` (0 budgeted bytes), so its next
        solve re-factorizes.  The active entry and entries whose workload
        lock is held by an in-flight solve are skipped — the budget is then
        temporarily exceeded rather than corrupting a running solve or
        blocking the one that needs the memory.
        """
        tier = self.tier
        if tier.budget_bytes is None:
            return
        exclude: set[tuple[Workload, SolverSpec]] = {active_key}
        while tier.over_budget():
            key = tier.next_victim(exclude)
            if key is None:
                return
            lock = self.workload_lock(key[0])
            if not lock.acquire(blocking=False):
                exclude.add(key)
                continue
            try:
                with self._cache_lock:
                    solver = self._solvers[key]
                self._release_solver(key, solver)
            finally:
                lock.release()

    def _release_solver(self, key: tuple[Workload, SolverSpec], solver: FetiSolver) -> None:
        """Release one entry's numeric storage (its workload lock held)."""
        solver.release()
        self.tier.mark_released(key, solver.operator.storage_version)

    # ------------------------------------------------------------------ #
    # Execution                                                           #
    # ------------------------------------------------------------------ #
    def solve(
        self,
        workload: Workload | str | Mapping[str, Any],
        spec: SolverSpec | str | None = None,
    ) -> FetiSolution:
        """Solve one workload (single solve, loads as declared).

        Repeated calls with the same workload and spec reuse the prepared
        solver — symbolic analysis, numeric factorization and the assembled
        dual operator are not recomputed.  The preprocessing is re-run only
        when the operator released its factors: a schedule's last step
        factored stiffness values other than the built ones (see
        :meth:`run_steps`), the memory tier released a cold entry, or an
        earlier preprocessing raised.
        """
        w = self.resolve_workload(workload)
        return self._solve(w, self.resolve_spec(spec), [None])[0]

    def _solve(
        self,
        w: Workload,
        s: SolverSpec,
        loads_columns: "list[list[np.ndarray] | None]",
        **attrs: Any,
    ) -> list[FetiSolution]:
        """The one solve of :meth:`solve`, :meth:`solve_request` and
        :meth:`solve_many`: ``FetiSolver.solve_many`` under the workload
        lock, in a ``session.solve`` span carrying ``attrs``.  The callers
        have checked ``loads_columns`` before the lock; the solver does not
        check them again."""
        with trace_span(
            "session.solve", workload=w.describe(), approach=s.approach.value, **attrs
        ):
            with self.workload_lock(w):
                solver = self.solver(w, s)
                solutions = solver._solve_checked(loads_columns, reuse_preprocessing=True)
                self._solves.inc(len(loads_columns))
                self._record_usage((w, s), solver)
                return solutions

    def solve_request(
        self,
        workload: Workload | str | Mapping[str, Any],
        spec: SolverSpec | str | None = None,
        rhs: Any = None,
    ) -> RequestSolution:
        """Solve one ``(workload, spec, rhs)`` request — the serving path.

        ``rhs`` is ``None`` (the declared loads), a finite scalar load
        factor, or one load vector per subdomain (a sequence or a stacked
        array).  A malformed ``rhs`` raises ``TypeError`` / ``ValueError``
        before the workload lock is taken.  The loads are an argument of
        the solve, never written into the problem, so a request leaks no
        state into the next one and its answer is bitwise :meth:`solve` at
        the same loads, whatever else is in flight on this or any other
        session.
        """
        w = self.resolve_workload(workload)
        s = self.resolve_spec(spec)
        loads = self._request_loads(w, rhs)
        return RequestSolution.from_solution(self._solve(w, s, [loads])[0])

    def _request_loads(self, w: Workload, rhs: Any) -> list[np.ndarray] | None:
        """The checked loads a request's ``rhs`` stands for (``None``: declared).

        This is the loads' one check on the request path: :meth:`_solve`
        hands them to the solver unchecked.
        """
        if rhs is None:
            return None
        if isinstance(rhs, (int, float, np.integer, np.floating)) or (
            isinstance(rhs, np.ndarray) and rhs.ndim == 0
        ):
            factor = float(rhs)
            if not math.isfinite(factor):
                raise ValueError(f"the rhs load factor must be finite, got {factor!r}")
            loads = [factor * f for f in self.base_loads(w)]
        elif isinstance(rhs, np.ndarray) or (
            isinstance(rhs, Sequence) and not isinstance(rhs, (str, bytes))
        ):
            # One copy per vector: the problem never aliases the caller's arrays.
            loads = [np.array(f, dtype=float) for f in rhs]
        else:
            raise TypeError(
                "rhs must be None, a scalar load factor, or a sequence of "
                f"per-subdomain load vectors, got {type(rhs).__name__}"
            )
        # A finite factor can still overflow a load to infinity.
        self.problem(w).check_loads(loads)
        return loads

    def solve_many(
        self,
        workload: Workload | str | Mapping[str, Any],
        loads_columns: "list[list[np.ndarray] | None]",
        spec: SolverSpec | str | None = None,
    ) -> list[FetiSolution]:
        """Solve one workload under many load cases over one preprocessing.

        Each column's loads are an argument, as in :meth:`solve_request`.
        More than one column runs the one PCPG loop on block applies: the
        dual operator reaches all active columns in one fused kernel (see
        :meth:`~repro.feti.solver.FetiSolver.solve_many`); those answers
        agree with sequential :meth:`solve` calls to rounding, not bitwise.
        One column is bitwise :meth:`solve_request` at the same loads.

        Parameters
        ----------
        loads_columns:
            One entry per right-hand side: ``None`` for the workload's
            declared loads, or per-subdomain load vectors.
        """
        w = self.resolve_workload(workload)
        s = self.resolve_spec(spec)
        for loads in loads_columns:
            if loads is not None:
                self.problem(w).check_loads(loads)
        solutions = self._solve(w, s, loads_columns, columns=len(loads_columns))
        self._stacked_solves.inc()
        self._stacked_columns.inc(len(loads_columns))
        return solutions

    def _run_schedule(
        self,
        w: Workload,
        spec: SolverSpec | str | None,
        n_steps: int | None,
        update: Update | None,
    ) -> tuple[list[StepRecord], FetiSolution | None]:
        """Drive Algorithm 2 under the workload lock.

        The built-in load ramp returns each step's loads.  A custom
        ``update`` may also rebind the subdomains' ``f``, so after one every
        ``f`` is rebound to the built loads.  The operator releases its
        factors — its next solve preprocesses again — exactly when its last
        step factored values other than the built ones.
        """
        s = self.resolve_spec(spec)
        with self.workload_lock(w):
            solver = self.solver(w, s)
            problem = self.problem(w)
            n = int(n_steps) if n_steps is not None else w.steps
            base = problem.base_loads
            custom = update is not None
            if not custom:

                def update(step: int, problem: FetiProblem) -> list[np.ndarray]:
                    scale = 1.0 + w.load_ramp * step
                    return [scale * f0 for f0 in base]

            driver = MultiStepDriver(solver, update=update)
            try:
                records = driver.run(n)
            finally:
                for sub, f0 in zip(problem.subdomains, base) if custom else ():
                    sub.f = f0
                if not driver.factors_current():
                    solver.release()
            self._steps.inc(n)
            self._solves.inc(n)
            self._record_usage((w, s), solver)
            return list(records), driver.last_solution

    def run_steps(
        self,
        workload: Workload | str | Mapping[str, Any],
        n_steps: int | None = None,
        spec: SolverSpec | str | None = None,
        update: Update | None = None,
    ) -> list[StepRecord]:
        """Run the multi-step schedule (Algorithm 2) and return its records.

        Without an explicit ``update`` the workload's ``load_ramp`` is
        applied: step ``s`` solves with loads ``(1 + load_ramp * s) * f``
        scaled from the pristine base loads, passed to the solve and never
        written into the shared problem.  A custom ``update`` returns its
        loads, or a :class:`~repro.feti.solver.StepValues` with its loads and
        ``K`` / ``K_reg`` values (see
        :class:`~repro.feti.solver.MultiStepDriver`): the problem is
        read-only, so a schedule leaks nothing into later solves or other
        sessions.  A step preprocesses only when its stiffness values differ
        from the ones its factors hold (the first step always does); each
        record's ``preprocessed`` says which steps did.
        """
        w = self.resolve_workload(workload)
        records, _ = self._run_schedule(w, spec, n_steps, update)
        return records

    def run(
        self,
        workload: Workload | str | Mapping[str, Any],
        spec: SolverSpec | str | None = None,
    ) -> RunResult:
        """Run a workload end-to-end: all declared steps plus the solution.

        The returned :class:`RunResult` carries the per-step records and the
        full solution of the final step (at that step's ramped loads) — no
        extra solve is run.  The ramped loads are arguments of the steps'
        solves, so later ``solve`` calls on the same workload see the
        declared loads.
        """
        w = self.resolve_workload(workload)
        records, solution = self._run_schedule(w, spec, None, None)
        return RunResult(
            workload=w, records=records, solution=solution, problem=self.problem(w)
        )

    # ------------------------------------------------------------------ #
    # Tuning and introspection                                            #
    # ------------------------------------------------------------------ #
    def autotune(
        self,
        workload: Workload | str | Mapping[str, Any],
        cuda_library,
        configs=None,
        spec: SolverSpec | str | None = None,
    ):
        """Exhaustive Table-I parameter search on a workload's problem.

        Thin wrapper over
        :func:`repro.feti.autotune.exhaustive_parameter_search` using the
        session's cached problem and the spec's machine resources; returns
        the measured configurations, best first.
        """
        from repro.feti.autotune import exhaustive_parameter_search

        s = self.resolve_spec(spec)
        return exhaustive_parameter_search(
            self.problem(workload),
            cuda_library,
            machine_config=s.machine_config(),
            configs=configs,
        )

    def cache_stats(self) -> dict[str, Any]:
        """Cache effectiveness of the session (for logs and assertions).

        A view: the counters of :attr:`metrics` plus point-in-time reads of
        the pattern cache, the tier's ledger and the projectors.
        """
        with self._cache_lock:
            problems = len(self._problems)
            solvers = list(self._solvers.values())
        # Never force a projector's lazy build.
        projectors = [s._projector for s in solvers if s._projector is not None]  # noqa: SLF001
        resident_entries, released_entries = self.tier.entries()
        return {
            "symbolic_analyses": self.pattern_cache.misses,
            "pattern_hits": self.pattern_cache.hits,
            "pattern_hit_rate": self.pattern_cache.hit_rate,
            "pattern_bytes": self.pattern_cache.nbytes,
            "problems": problems,
            "solvers": len(solvers),
            "coarse_applies": sum(p.applies for p in projectors),
            "coarse_solves": sum(p.solves for p in projectors),
            "coarse_seconds": sum((p.seconds + p.factor_seconds for p in projectors), 0.0),
            "memory_budget_bytes": self.tier.budget_bytes,
            "resident_bytes": self.tier.ledger.resident_bytes,
            "peak_resident_bytes": self.tier.ledger.peak_bytes,
            "resident_entries": resident_entries,
            "released_entries": released_entries,
            **self.metrics.values("repro_pool_", "repro_tier_"),
        }
