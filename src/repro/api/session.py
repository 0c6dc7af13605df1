"""The stateful :class:`Session`: the owner of all cross-solve state.

A session binds a default :class:`~repro.api.spec.SolverSpec` to a set of
caches that previously had no owner above a single ``FetiSolver``:

* one :class:`~repro.sparse.cache.PatternCache` shared by every solver the
  session builds, so subdomains *and workloads* with equal sparsity
  patterns pay for exactly one symbolic analysis;
* the built :class:`~repro.feti.problem.FetiProblem` instances together
  with their pristine load vectors (restored after multi-step schedules);
* the prepared :class:`~repro.feti.solver.FetiSolver` instances, keyed by
  ``(workload, spec)``, so repeated ``solve`` calls reuse symbolic and
  numeric factorizations, assembled dual operators and persistent GPU
  structures automatically.

Typical use::

    from repro.api import Session, SolverSpec, Workload

    session = Session(SolverSpec(approach="expl modern", assembly="table2"))
    solution = session.solve(Workload("heat", 2, (4, 4), 8))
    result = session.run("elasticity-2d-multistep")   # Algorithm 2
    print(session.cache_stats())
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.api.spec import SolverSpec
from repro.api.workload import Workload, build_problem, workload_preset
from repro.feti.operators.base import DualOperatorBase
from repro.feti.problem import FetiProblem
from repro.feti.solver import FetiSolution, FetiSolver, MultiStepDriver, StepRecord
from repro.memory.ledger import measure_solver
from repro.memory.precision import resolve_precision
from repro.memory.tier import FactorTier, parse_budget
from repro.observe.trace import trace_span
from repro.runtime.executor import ExecutionSpec, Executor, make_executor
from repro.sparse.cache import PatternCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.queue import SolveQueue

__all__ = ["Session", "SessionStats", "RunResult"]


@dataclass
class SessionStats:
    """Counters of the work a session performed and the work it avoided."""

    problems_built: int = 0
    solvers_built: int = 0
    solver_reuses: int = 0
    solves: int = 0
    steps: int = 0
    #: Number of multi-RHS block solves (:meth:`Session.solve_many` calls).
    stacked_solves: int = 0
    #: Total right-hand-side columns those block solves carried.
    stacked_columns: int = 0


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
        coldest entries are demoted to fp32 storage and then evicted;
        both are transparent — the next solve of an affected entry lazily
        re-runs its numeric factorization, so results never change.
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
        #: The budget-aware factor tier (LRU demotion/eviction state machine
        #: plus the byte-accurate ledger of every cached solver's storage).
        self.tier = FactorTier(parse_budget(memory_budget))
        self.stats = SessionStats()
        self._problems: dict[Workload, FetiProblem] = {}
        self._base_loads: dict[Workload, list[np.ndarray]] = {}
        self._solvers: dict[tuple[Workload, SolverSpec], FetiSolver] = {}
        #: Solvers whose numeric factorization may not match the (restored)
        #: problem values — set after a schedule ran with a custom matrix-
        #: mutating ``update``; cleared by the next solve, which re-runs the
        #: preprocessing instead of reusing the stale one.
        self._stale_solvers: set[tuple[Workload, SolverSpec]] = set()
        #: Entries whose storage the tier demoted to fp32: also stale, but
        #: their next re-preprocessing counts as a lazy re-factorization.
        self._demoted_keys: set[tuple[Workload, SolverSpec]] = set()
        #: Entries the tier evicted outright: rebuilding one counts as a
        #: lazy re-factorization too.
        self._evicted_keys: set[tuple[Workload, SolverSpec]] = set()
        #: Re-entrant lock guarding every session cache, so the ``threads``
        #: execution backend (and :class:`~repro.runtime.queue.SolveQueue`
        #: traffic) can share one session without corrupting the problem /
        #: solver maps or the stats counters.
        self._cache_lock = threading.RLock()
        #: Per-workload execution locks: a workload's problem (its load
        #: vectors) and its prepared solvers are stateful, so concurrent
        #: solves of one workload — from any number of queues or direct
        #: ``solve`` calls — must serialize, while different workloads
        #: overlap.  Owned by the session (not a queue) so every consumer
        #: shares one lock per workload.
        self._workload_locks: dict[Workload, threading.RLock] = {}
        #: Runtime executors owned by this session, one per execution spec;
        #: created on demand, closed by :meth:`close`.
        self._executors: dict[ExecutionSpec, Executor] = {}
        self._closed = False
        # Warm the default spec's executor now: worker pools start before
        # any measured phase, so pool start-up never lands inside a
        # benchmark's preprocessing wall time.
        self.executor().warm()

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

    def _resolve_spec(self, spec: SolverSpec | str | None) -> SolverSpec:
        return self.spec if spec is None else SolverSpec.of(spec)

    def resolve_spec(self, spec: SolverSpec | str | None) -> SolverSpec:
        """Normalize a per-call spec (``None`` = the session default)."""
        return self._resolve_spec(spec)

    def workload_lock(self, workload: Workload | str | Mapping[str, Any]) -> threading.RLock:
        """The session-wide execution lock of one workload.

        Re-entrant, created on demand; every in-process consumer that runs
        a solve or mutates a workload's loads holds it, so concurrent
        queues and direct ``solve`` calls can never interleave on one
        workload's shared state.
        """
        w = self.resolve_workload(workload)
        with self._cache_lock:
            lock = self._workload_locks.get(w)
            if lock is None:
                lock = threading.RLock()
                self._workload_locks[w] = lock
            return lock

    # ------------------------------------------------------------------ #
    # Executor lifecycle                                                  #
    # ------------------------------------------------------------------ #
    def executor_for(self, spec: SolverSpec | str | None = None) -> Executor:
        """The session-owned executor of a spec's execution backend.

        One executor is kept per distinct :class:`~repro.runtime.executor.
        ExecutionSpec`; pools are created on first use and shut down by
        :meth:`close` (or the session's context-manager exit).
        """
        s = self._resolve_spec(spec)
        execution = s.resolve_execution()
        with self._cache_lock:
            if self._closed:
                raise RuntimeError("the session has been closed")
            executor = self._executors.get(execution)
            if executor is None:
                executor = make_executor(execution)
                self._executors[execution] = executor
            return executor

    def executor(self) -> Executor:
        """The executor of the session's default spec."""
        return self.executor_for(None)

    def queue(self, spec: SolverSpec | str | None = None) -> "SolveQueue":
        """A :class:`~repro.runtime.queue.SolveQueue` over this session.

        The queue schedules many ``(workload, spec, rhs)`` requests across
        the executor of ``spec`` (the session default when omitted) — the
        concurrent "many users" serving path.
        """
        from repro.runtime.queue import SolveQueue

        return SolveQueue(self, executor=self.executor_for(spec))

    def close(self) -> None:
        """Shut down the session's worker pools (idempotent).

        The caches survive — a closed session can still resolve problems —
        but no further parallel work can be dispatched.
        """
        with self._cache_lock:
            executors = list(self._executors.values())
            self._executors.clear()
            self._closed = True
        for executor in executors:
            executor.close()

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
                self._base_loads[w] = [sub.f.copy() for sub in problem.subdomains]
                self.stats.problems_built += 1
            return problem

    def base_loads(self, workload: Workload | str | Mapping[str, Any]) -> list[np.ndarray]:
        """The pristine load vectors of a workload's problem."""
        w = self.resolve_workload(workload)
        self.problem(w)
        with self._cache_lock:
            return self._base_loads[w]

    def solver(
        self,
        workload: Workload | str | Mapping[str, Any],
        spec: SolverSpec | str | None = None,
    ) -> FetiSolver:
        """The (session-cached) prepared solver of ``(workload, spec)``."""
        w = self.resolve_workload(workload)
        s = self._resolve_spec(spec)
        key = (w, s)
        with self._cache_lock:
            solver = self._solvers.get(key)
            if solver is None:
                solver = FetiSolver(
                    self.problem(w),
                    s,
                    pattern_cache=self.pattern_cache,
                    executor=self.executor_for(s),
                )
                self._solvers[key] = solver
                self.stats.solvers_built += 1
                if key in self._evicted_keys:
                    # The tier evicted this entry earlier; this rebuild is
                    # the lazy re-factorization the eviction deferred.
                    self._evicted_keys.discard(key)
                    self.tier.count_refactorization()
            else:
                self.stats.solver_reuses += 1
                self.tier.touch(key)
            return solver

    def operator_for(
        self,
        workload: Workload | str | Mapping[str, Any],
        spec: SolverSpec | str | None = None,
    ) -> DualOperatorBase:
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

    def _after_solve(self, key: tuple[Workload, SolverSpec], solver: FetiSolver) -> None:
        """Account a completed solve: clear staleness, measure, enforce.

        Called with the workload lock held, after the solve succeeded — a
        failed solve must keep its stale marker so the next attempt still
        re-runs the preprocessing.
        """
        with self._cache_lock:
            self._stale_solvers.discard(key)
            refactorized = key in self._demoted_keys
            self._demoted_keys.discard(key)
        if refactorized:
            self.tier.count_refactorization()
        self._record_usage(key, solver)

    def _record_usage(self, key: tuple[Workload, SolverSpec], solver: FetiSolver) -> None:
        """Re-measure one entry's resident bytes and enforce the budget."""
        demotable = not resolve_precision(key[1].precision).demotes
        self.tier.record(key, measure_solver(solver), demotable=demotable)
        self._enforce_budget(key)

    def _enforce_budget(self, active_key: tuple[Workload, SolverSpec]) -> None:
        """Demote/evict cold entries until the ledger fits the budget.

        Walks the tier's LRU cold end: a full fp64 entry is first demoted
        (factor and pack storage to fp32, entry marked stale so the next
        touch re-factorizes instead of reading rounded values), a demoted
        or natively-fp32 entry is evicted.  The active entry and entries
        whose workload lock is held by an in-flight solve are skipped —
        the budget is then temporarily exceeded rather than corrupting a
        running solve or blocking the one that needs the memory.
        """
        tier = self.tier
        if tier.budget_bytes is None:
            return
        exclude: set[tuple[Workload, SolverSpec]] = {active_key}
        while tier.over_budget():
            victim = tier.next_victim(exclude)
            if victim is None:
                return
            key, action = victim
            lock = self.workload_lock(key[0])
            if not lock.acquire(blocking=False):
                exclude.add(key)
                continue
            try:
                with self._cache_lock:
                    solver = self._solvers.get(key)
                    if solver is None:
                        # Tracked but externally dropped; just forget it.
                        tier.mark_evicted(key)
                        continue
                    if action == "demote":
                        solver.operator.demote_storage()
                        self._stale_solvers.add(key)
                        self._demoted_keys.add(key)
                        tier.mark_demoted(key, measure_solver(solver))
                    else:
                        del self._solvers[key]
                        self._stale_solvers.discard(key)
                        self._demoted_keys.discard(key)
                        self._evicted_keys.add(key)
                        tier.mark_evicted(key)
            finally:
                lock.release()

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
        when a schedule with a custom matrix-mutating ``update`` marked the
        solver stale (see :meth:`run_steps`).
        """
        w = self.resolve_workload(workload)
        s = self._resolve_spec(spec)
        with trace_span("session.solve", workload=w.describe(), approach=s.approach.value):
            with self.workload_lock(w):
                solver = self.solver(w, s)
                with self._cache_lock:
                    self.stats.solves += 1
                    stale = (w, s) in self._stale_solvers
                solution = solver.solve(reuse_preprocessing=not stale)
                # Account only after the solve succeeded: if it raises, the
                # next solve must still see the solver as stale instead of
                # reusing a factorization of mutated (or demoted) values.
                self._after_solve((w, s), solver)
                return solution

    def solve_many(
        self,
        workload: Workload | str | Mapping[str, Any],
        loads_columns: "list[list[np.ndarray] | None]",
        spec: SolverSpec | str | None = None,
        *,
        stacked: bool = True,
    ) -> list[FetiSolution]:
        """Solve one workload under many load cases in a single block PCPG.

        The preprocessing runs once and the per-iteration dual-operator
        applications of all columns are fused (see
        :meth:`~repro.feti.solver.FetiSolver.solve_many`) — the batching
        win that :class:`~repro.runtime.queue.SolveQueue` exploits when it
        coalesces same-``(workload, spec)`` requests.

        Parameters
        ----------
        loads_columns:
            One entry per right-hand side: ``None`` for the workload's
            declared loads, or per-subdomain load vectors.
        stacked:
            Use the operator's fused multi-RHS kernel (default).  Pass
            ``False`` for the per-column path that is bitwise equal to
            sequential :meth:`solve` calls.
        """
        w = self.resolve_workload(workload)
        s = self._resolve_spec(spec)
        with trace_span(
            "session.solve",
            workload=w.describe(),
            approach=s.approach.value,
            columns=len(loads_columns),
        ):
            with self.workload_lock(w):
                solver = self.solver(w, s)
                with self._cache_lock:
                    self.stats.solves += len(loads_columns)
                    self.stats.stacked_solves += 1
                    self.stats.stacked_columns += len(loads_columns)
                    stale = (w, s) in self._stale_solvers
                solutions = solver.solve_many(
                    loads_columns, stacked=stacked, reuse_preprocessing=not stale
                )
                self._after_solve((w, s), solver)
                return solutions

    def note_stacked_solve(self, columns: int) -> None:
        """Record a multi-RHS block solve that ran on this session's behalf.

        Used by :class:`~repro.runtime.queue.SolveQueue` when a coalesced
        batch runs inside a *worker* session (process backend): the worker's
        own counters are invisible here, but the parent session is the one
        ``/v1/metrics`` reports on.
        """
        with self._cache_lock:
            self.stats.stacked_solves += 1
            self.stats.stacked_columns += columns

    def _run_schedule(
        self,
        w: Workload,
        spec: SolverSpec | str | None,
        n_steps: int | None,
        update: Callable[[int, FetiProblem], None] | None,
    ) -> tuple[list[StepRecord], FetiSolution | None]:
        """Drive Algorithm 2 and restore the pristine problem afterwards.

        The built problems are shared process-wide (one instance per
        workload), so the schedule's mutations must never leak past the
        run.  The built-in load ramp only touches the load vectors; a
        custom ``update`` may additionally change stiffness *values*
        (``K``/``K_reg``, pattern fixed — the MultiStepDriver contract), so
        those are snapshotted and restored too, and every cached solver of
        the workload is marked stale so its next solve re-runs the numeric
        preprocessing instead of reusing the schedule's last factorization.
        """
        s = self._resolve_spec(spec)
        with self.workload_lock(w):
            return self._run_schedule_locked(w, s, n_steps, update)

    def _run_schedule_locked(
        self,
        w: Workload,
        s: SolverSpec,
        n_steps: int | None,
        update: Callable[[int, FetiProblem], None] | None,
    ) -> tuple[list[StepRecord], FetiSolution | None]:
        solver = self.solver(w, s)
        problem = self.problem(w)
        # The driver re-runs the preprocessing on every step, so a demoted
        # entry re-factorizes immediately; consume its markers up front
        # (a custom update's ``finally`` below re-marks staleness anyway).
        with self._cache_lock:
            refactorized = (w, s) in self._demoted_keys
            self._demoted_keys.discard((w, s))
            if refactorized:
                self._stale_solvers.discard((w, s))
        if refactorized:
            self.tier.count_refactorization()
        n = int(n_steps) if n_steps is not None else w.steps
        base = self._base_loads[w]
        custom_update = update is not None
        matrices = (
            [(sub.K, sub.K.data.copy(), sub.K_reg, sub.K_reg.data.copy())
             for sub in problem.subdomains]
            if custom_update
            else None
        )
        if update is None:

            def update(step: int, problem: FetiProblem) -> None:
                scale = 1.0 + w.load_ramp * step
                for sub, f0 in zip(problem.subdomains, base):
                    sub.f = scale * f0

        driver = MultiStepDriver(solver, update=update)
        try:
            records = driver.run(n)
        finally:
            for sub, f0 in zip(problem.subdomains, base):
                sub.f = f0.copy()
            if matrices is not None:
                for sub, (K, K_data, K_reg, K_reg_data) in zip(
                    problem.subdomains, matrices
                ):
                    sub.K, sub.K_reg = K, K_reg
                    K.data[:] = K_data
                    K_reg.data[:] = K_reg_data
                with self._cache_lock:
                    self._stale_solvers.update(
                        key for key in self._solvers if key[0] == w
                    )
        with self._cache_lock:
            self.stats.steps += n
            self.stats.solves += n
        self._record_usage((w, s), solver)
        return list(records), driver.last_solution

    def run_steps(
        self,
        workload: Workload | str | Mapping[str, Any],
        n_steps: int | None = None,
        spec: SolverSpec | str | None = None,
        update: Callable[[int, FetiProblem], None] | None = None,
    ) -> list[StepRecord]:
        """Run the multi-step schedule (Algorithm 2) and return its records.

        Without an explicit ``update`` the workload's ``load_ramp`` is
        applied: step ``s`` solves with loads ``(1 + load_ramp * s) * f``
        scaled from the pristine base loads.  The loads are restored to
        their pristine values afterwards, so repeated runs and later
        ``solve`` calls are deterministic.
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
        extra solve is run.  The problem's load vectors are restored to
        their pristine values afterwards, so later ``solve`` calls on the
        same workload see the declared loads.
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

        s = self._resolve_spec(spec)
        return exhaustive_parameter_search(
            self.problem(workload),
            cuda_library,
            machine_config=s.machine_config(),
            configs=configs,
        )

    def cache_stats(self) -> dict[str, Any]:
        """Cache effectiveness of the session (for logs and assertions)."""
        coarse_applies = 0
        coarse_solves = 0
        coarse_seconds = 0.0
        with self._cache_lock:
            solvers = list(self._solvers.values())
        for solver in solvers:
            projector = solver._projector  # noqa: SLF001 - never force the lazy build
            if projector is None:
                continue
            coarse_applies += projector.applies
            coarse_solves += projector.solves
            coarse_seconds += projector.seconds + projector.factor_seconds
        return {
            "symbolic_analyses": self.pattern_cache.misses,
            "pattern_hits": self.pattern_cache.hits,
            "pattern_hit_rate": self.pattern_cache.hit_rate,
            "pattern_bytes": self.pattern_cache.nbytes,
            "problems": len(self._problems),
            "solvers": len(self._solvers),
            "solver_reuses": self.stats.solver_reuses,
            "solves": self.stats.solves,
            "steps": self.stats.steps,
            "stacked_solves": self.stats.stacked_solves,
            "stacked_columns": self.stats.stacked_columns,
            "coarse_applies": coarse_applies,
            "coarse_solves": coarse_solves,
            "coarse_seconds": coarse_seconds,
            **self.tier.stats(),
        }

    def publish_metrics(self, registry) -> None:
        """Publish the session's counters into a :class:`~repro.observe.
        metrics.MetricsRegistry` (one gauge per ``cache_stats`` entry,
        prefixed ``repro_session_``; the tier publishes its own
        ``repro_tier_*`` metrics)."""
        stats = self.cache_stats()
        tier_keys = set(self.tier.stats())
        for key, value in stats.items():
            if key in tier_keys or not isinstance(value, (int, float)):
                continue
            registry.gauge(
                f"repro_session_{key}", f"Session cache_stats counter {key}"
            ).set(float(value))
        self.tier.publish_metrics(registry)
