"""Common machinery of the dual-operator implementations.

The base class owns the phase bookkeeping (simulated + wall time, recorded in
a :class:`~repro.analysis.timing.TimingLedger`), the grouping of subdomains
by cluster, and the generic pieces every approach needs: ``K⁺`` on all
subdomains at once (one stacked solve per sparsity pattern over the CPU-side
factorizations) for ``d = B K⁺ f − c`` and the primal recovery, and the
scatter/gather between the global dual vector and the per-subdomain local
dual vectors.
"""

from __future__ import annotations

import abc
import threading
import time
from collections.abc import Callable
from typing import ClassVar

import numpy as np

from repro.analysis.timing import PhaseTiming, ThreadClocks, TimingLedger
from repro.cluster.topology import ClusterResources, Machine
from repro.feti.config import AssemblyConfig, DualOperatorApproach
from repro.feti.operators.batch import SubdomainBatchEngine
from repro.feti.problem import FetiProblem, SubdomainProblem
from repro.memory.precision import PrecisionPolicy, resolve_precision
from repro.observe.trace import trace_span
from repro.sparse.cache import PatternCache
from repro.sparse.solvers import SolverStack, SparseSolverBase

__all__ = ["DualOperatorBase"]


class DualOperatorBase(abc.ABC):
    """Abstract base of the nine dual-operator approaches."""

    #: Which Table-III approach the concrete class implements.
    approach: ClassVar[DualOperatorApproach]

    def __init__(
        self,
        problem: FetiProblem,
        machine: Machine,
        config: AssemblyConfig | None = None,
        pattern_cache: PatternCache | None = None,
        executor=None,
        precision: "str | PrecisionPolicy" = "fp64",
    ) -> None:
        self.problem = problem
        self.machine = machine
        self.config = config or AssemblyConfig()
        #: Factor/pack storage policy (see :mod:`repro.memory.precision`).
        #: All arithmetic still runs in fp64; the policy controls what the
        #: resident factors and packed ``F̃ᵢ`` blocks are stored as, and
        #: whether solves are iteratively refined back to fp64 residuals.
        self.precision = resolve_precision(precision)
        #: Caller-owned pattern cache for the sparse symbolic analysis (a
        #: :class:`repro.api.Session` passes its own); ``None`` keeps the
        #: sparse layer's default (the process-global cache).
        self.pattern_cache = pattern_cache
        #: Runtime executor the preprocessing shards run on (a
        #: :class:`repro.runtime.executor.Executor`); ``None`` resolves to
        #: the process-wide default (``REPRO_EXECUTOR``, serial when unset)
        #: on first use.  A :class:`repro.api.Session` passes the executor
        #: it owns.
        self._executor = executor
        #: The most recent preprocessing round: keeps the shared-memory
        #: buffers backing adopted factor panels and ``local_F`` views
        #: alive until the next round replaces them.
        self._preprocess_round = None
        self.ledger = TimingLedger()
        self._prepared = False
        self._preprocessed = False
        self._batch_engine: "SubdomainBatchEngine | None" = None
        #: The applies' simulated timelines of this preprocessing round, keyed
        #: by stacked column count (see :meth:`_planned`).
        self._apply_plans: dict[int, tuple[float, dict[str, float]]] = {}
        self._plan_lock = threading.Lock()
        #: This round's ``K⁺``: per pattern group, the flat indices of its
        #: members' DOFs in the concatenated primal vector and their stacked
        #: factors.  Built by the first solve after a preprocessing, dropped
        #: with the apply plans.
        self._kplus_stacks: list[tuple[np.ndarray, SolverStack]] | None = None
        self._cluster_subdomains: dict[int, list[SubdomainProblem]] = {}
        #: Per-subdomain CPU factorizations (populated by subclasses); used
        #: for the dual right-hand side and the primal recovery.
        self._cpu_solvers: dict[int, SparseSolverBase] = {}

    # ------------------------------------------------------------------ #
    # Cluster helpers                                                     #
    # ------------------------------------------------------------------ #
    def subdomains_of_cluster(self, cluster_id: int) -> list[SubdomainProblem]:
        """Subdomains owned by one cluster (cached: the grouping is static).

        Read by the preparation / preprocessing bookkeeping and the timeline
        plans, once per round; no apply walks it.
        """
        subs = self._cluster_subdomains.get(cluster_id)
        if subs is None:
            subs = [s for s in self.problem.subdomains if s.cluster == cluster_id]
            self._cluster_subdomains[cluster_id] = subs
        return subs

    def iter_clusters(self):
        """Yield ``(resources, subdomains)`` for every cluster."""
        for cluster in self.machine.clusters:
            yield cluster, self.subdomains_of_cluster(cluster.cluster_id)

    @property
    def batch_engine(self) -> SubdomainBatchEngine:
        """The batched subdomain execution engine (built once, lazily)."""
        if self._batch_engine is None:
            self._batch_engine = SubdomainBatchEngine(
                self.problem,
                self.machine,
                dense_dtype=self.precision.storage_dtype,
            )
        return self._batch_engine

    @property
    def executor(self):
        """The runtime executor of the preprocessing shards (lazy default)."""
        if self._executor is None:
            from repro.runtime.executor import shared_executor

            self._executor = shared_executor()
        return self._executor

    def run_feti_preprocessing(
        self,
        *,
        need_schur: bool = False,
        exploit_rhs_sparsity: bool = True,
        need_rhs_fill: bool = False,
    ):
        """Factorize every subdomain (and optionally assemble ``F̃ᵢ``).

        The single entry point of the runtime layer: with a serial executor
        this is the historical per-subdomain loop; with a parallel one the
        work is sharded by cluster topology and dispatched as overlapping
        futures (see :mod:`repro.runtime.preprocess`).  On return every
        solver in ``self._cpu_solvers`` is numerically factorized; the
        returned round maps subdomain indices to their Schur blocks /
        cost-model inputs.
        """
        from repro.runtime.preprocess import run_preprocessing

        round_ = run_preprocessing(
            self.executor,
            [(c.cluster_id, subs) for c, subs in self.iter_clusters()],
            self._cpu_solvers,
            need_schur=need_schur,
            exploit_rhs_sparsity=exploit_rhs_sparsity,
            need_rhs_fill=need_rhs_fill,
        )
        self._preprocess_round = round_
        return round_

    # ------------------------------------------------------------------ #
    # Phase template methods                                              #
    # ------------------------------------------------------------------ #
    def prepare(self) -> PhaseTiming:
        """Run the preparation phase (once per mesh)."""
        wall0 = time.perf_counter()
        with trace_span("preparation", approach=self.approach.value):
            sim, breakdown = self._prepare_impl()
        self._prepared = True
        return self._record("preparation", sim, breakdown, wall0)

    def preprocess(self) -> PhaseTiming:
        """Run the FETI preprocessing phase (once per time step)."""
        if not self._prepared:
            self.prepare()
        wall0 = time.perf_counter()
        self._drop_round_state()
        with trace_span("preprocessing", approach=self.approach.value):
            sim, breakdown = self._preprocess_impl()
        self._preprocessed = True
        return self._record("preprocessing", sim, breakdown, wall0)

    def _drop_round_state(self) -> None:
        """Forget what was derived from the current numeric factors."""
        self._apply_plans = {}
        self._kplus_stacks = None

    def _record(
        self, name: str, sim: float, breakdown: dict[str, float], wall0: float
    ) -> PhaseTiming:
        """Record one finished phase (wall time measured from ``wall0``)."""
        return self.ledger.record(
            PhaseTiming(name, sim, time.perf_counter() - wall0, breakdown)
        )

    def apply(self, lam: np.ndarray) -> np.ndarray:
        """Apply the dual operator ``q = F λ`` (once per PCPG iteration)."""
        if not self._preprocessed:
            raise RuntimeError("preprocess() must run before apply()")
        lam = np.asarray(lam, dtype=float)
        if lam.shape != (self.problem.n_lambda,):
            raise ValueError(
                f"dual vector has shape {lam.shape}, expected ({self.problem.n_lambda},)"
            )
        wall0 = time.perf_counter()
        with trace_span("apply"):
            q, sim, breakdown = self._apply_impl(lam)
        self._record("apply", sim, breakdown, wall0)
        return q

    __call__ = apply

    def apply_multi(self, lam_block: np.ndarray, *, stacked: bool = False) -> np.ndarray:
        """Apply ``F`` to ``k`` stacked dual vectors (``(n_lambda, k)``).

        The default runs the scalar apply path once per column — bit-equal
        to ``k`` separate :meth:`apply` calls, which makes the block-PCPG
        iteration an exact lockstep of ``k`` scalar iterations.  With
        ``stacked=True`` backends that support it (the explicit approaches)
        run one batched GEMM over all columns instead, amortizing the
        scatter/gather and kernel launches; results then agree with the
        per-column path to machine rounding (≤1e-12 relative).

        One ``apply_multi`` phase is recorded per call, with simulated
        seconds equal to the ``k`` per-column applies it replaces.
        """
        if not self._preprocessed:
            raise RuntimeError("preprocess() must run before apply_multi()")
        lam_block = np.asarray(lam_block, dtype=float)
        if lam_block.ndim != 2 or lam_block.shape[0] != self.problem.n_lambda:
            raise ValueError(
                f"dual block has shape {lam_block.shape}, expected "
                f"({self.problem.n_lambda}, k)"
            )
        wall0 = time.perf_counter()
        with trace_span("apply_multi", columns=int(lam_block.shape[1]), stacked=stacked):
            result = self._apply_multi_stacked(lam_block) if stacked else None
            if result is None:
                sim = 0.0
                breakdown: dict[str, float] = {}
                columns = []
                for j in range(lam_block.shape[1]):
                    q, col_sim, col_breakdown = self._apply_impl(
                        np.ascontiguousarray(lam_block[:, j])
                    )
                    columns.append(q)
                    sim += col_sim
                    for key, value in col_breakdown.items():
                        breakdown[key] = breakdown.get(key, 0.0) + value
                out = np.column_stack(columns) if columns else np.zeros_like(lam_block)
            else:
                out, sim, breakdown = result
        self._record("apply_multi", sim, breakdown, wall0)
        return out

    def _apply_multi_stacked(
        self, lam_block: np.ndarray
    ) -> tuple[np.ndarray, float, dict[str, float]] | None:
        """Backend hook for a truly stacked multi-RHS apply (``None`` = loop)."""
        return None

    # ------------------------------------------------------------------ #
    # Sharded dense apply                                                 #
    # ------------------------------------------------------------------ #
    def dense_matvec(self, batch, p_concat: np.ndarray) -> np.ndarray:
        """One cluster's packed dense apply, sharded on the runtime executor.

        The single interception point of the apply-phase sharding: every
        explicit backend (and the GPU scatter paths) funnels its batched
        GEMV through here, so threads/processes chunk the block pack while
        the serial executor stays the bit-equal reference.
        """
        from repro.runtime.apply import sharded_matvec

        return sharded_matvec(batch.require_dense(), p_concat, self.executor)

    def _apply_packed_dense(self, lam: np.ndarray) -> np.ndarray:
        """``q = Σ F̃ᵢ λᵢ``: one take, one batched GEMV, one ``np.add.at`` per cluster."""
        q = np.zeros_like(lam)
        for cluster, subs in self.iter_clusters():
            if subs:
                batch = self.batch_engine.cluster(cluster.cluster_id)
                q_concat = self.dense_matvec(batch, batch.dual_map.gather(lam))
                batch.dual_map.scatter_add(q, q_concat)
        return q

    def dense_matvec_multi(self, batch, p_stack: np.ndarray) -> np.ndarray:
        """The multi-RHS analogue of :meth:`dense_matvec` (stacked GEMM)."""
        from repro.runtime.apply import sharded_matvec_multi

        return sharded_matvec_multi(batch.require_dense(), p_stack, self.executor)

    # ------------------------------------------------------------------ #
    # Abstract pieces                                                     #
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def _prepare_impl(self) -> tuple[float, dict[str, float]]:
        """Return (simulated seconds, breakdown)."""

    @abc.abstractmethod
    def _preprocess_impl(self) -> tuple[float, dict[str, float]]:
        """Return (simulated seconds, breakdown)."""

    def _apply_impl(self, lam: np.ndarray) -> tuple[np.ndarray, float, dict[str, float]]:
        """Return (result, simulated seconds, breakdown) of one application.

        Numerics plus the round's planned timeline — simulated time is a pure
        function of the preprocessed state, so the stream/clock replay runs
        once per :meth:`preprocess`, not per PCPG iteration (the breakdown
        mapping is shared: read-only).  The per-subdomain loops that replay
        on every apply are the oracle (``tests/oracles/apply.py``).
        """
        sim, breakdown = self._planned(1, self._plan_apply)
        return self._apply_numerics(lam), sim, breakdown

    def _planned(
        self, columns: int, planner: Callable[[], tuple[float, dict[str, float]]]
    ) -> tuple[float, dict[str, float]]:
        """This round's apply timeline for ``columns`` stacked right-hand sides.

        Planned on first use, dropped by the next preprocessing.  The lock is
        taken only while the plan is missing: replays drive the shared device
        streams and must not interleave.
        """
        plan = self._apply_plans.get(columns)
        if plan is None:
            with self._plan_lock:
                plan = self._apply_plans.get(columns)
                if plan is None:
                    plan = self._apply_plans[columns] = planner()
        return plan

    @abc.abstractmethod
    def _apply_numerics(self, lam: np.ndarray) -> np.ndarray:
        """Batched ``λ → q``: gather, batched kernels, scatter-add; no timing."""

    @abc.abstractmethod
    def _plan_apply(self) -> tuple[float, dict[str, float]]:
        """Replay one apply's timeline; return (simulated seconds, breakdown)."""

    # ------------------------------------------------------------------ #
    # Timing accessors used by the benchmarks                             #
    # ------------------------------------------------------------------ #
    @property
    def preparation_time(self) -> float:
        """Simulated seconds of the last preparation phase."""
        phase = self.ledger.last("preparation")
        return phase.simulated_seconds if phase else 0.0

    @property
    def preprocessing_time(self) -> float:
        """Simulated seconds of the last preprocessing phase."""
        phase = self.ledger.last("preprocessing")
        return phase.simulated_seconds if phase else 0.0

    @property
    def application_time(self) -> float:
        """Mean simulated seconds of one dual-operator application."""
        return self.ledger.mean("apply")

    def preprocessing_time_per_subdomain(self) -> float:
        """Preprocessing time divided by the number of subdomains."""
        return self.preprocessing_time / max(1, self.problem.n_subdomains)

    def application_time_per_subdomain(self) -> float:
        """Application time divided by the number of subdomains."""
        return self.application_time / max(1, self.problem.n_subdomains)

    # ------------------------------------------------------------------ #
    # K⁺ access (dual RHS and primal recovery)                            #
    # ------------------------------------------------------------------ #
    def _kplus(self, rhs: np.ndarray) -> np.ndarray:
        """``Kᵢ⁺`` on every block of a concatenated primal vector.

        One stacked supernodal sweep per group of subdomains sharing a
        symbolic analysis (:class:`~repro.sparse.solvers.SolverStack`),
        refined under a refining precision policy; the per-subdomain loop is
        the oracle (``tests/oracles/kplus.py``).
        """
        stacks = self._kplus_stacks
        if stacks is None:
            with self._plan_lock:
                stacks = self._kplus_stacks
                if stacks is None:
                    stacks = self._kplus_stacks = self._build_kplus_stacks()
        out = np.empty_like(rhs)
        for dofs, stack in stacks:
            out[dofs] = stack.solve(rhs[dofs])
        return out

    def _build_kplus_stacks(self) -> list[tuple[np.ndarray, SolverStack]]:
        offsets = self.batch_engine.primal_offsets
        groups: dict[int, tuple[list[int], list[SparseSolverBase]]] = {}
        for position, sub in enumerate(self.problem.subdomains):
            solver = self._cpu_solvers.get(sub.index)
            if solver is None or not solver.is_factorized:
                raise RuntimeError(
                    "no CPU factorization available; run preprocess() first"
                )
            positions, solvers = groups.setdefault(id(solver.symbolic), ([], []))
            positions.append(position)
            solvers.append(solver)
        return [
            (
                offsets[positions][:, None] + np.arange(solvers[0].symbolic.n),
                SolverStack(solvers),
            )
            for positions, solvers in groups.values()
        ]

    def apply_accurate(self, lam: np.ndarray) -> np.ndarray:
        """Reference application ``q = F λ`` through the refined CPU solves.

        Whatever a backend stores for its fast applies (fp32 ``local_F``
        packs, device factors), this routes the operator through
        ``B̃ K⁺ B̃ᵀ`` on the CPU factors — iterative refinement included under
        a refining precision policy — so the residuals it feeds are accurate
        to fp64 level.  The dual-level defect correction of ``fp32_ir``
        uses it a handful of times per solve, outside the PCPG iterations
        whose phases the benchmarks time.
        """
        q = np.zeros(self.problem.n_lambda)
        if self.problem.subdomains:
            engine = self.batch_engine
            z = self._kplus(engine.Bt @ engine.global_map.gather(np.asarray(lam)))
            engine.global_map.scatter_add(q, engine.B @ z)
        return q

    def dual_rhs(self) -> np.ndarray:
        """Compute ``d = B K⁺ f − c`` using the per-subdomain factorizations."""
        d = -np.array(self.problem.c, dtype=float, copy=True)
        subdomains = self.problem.subdomains
        if not subdomains:
            return d
        engine = self.batch_engine
        f = np.concatenate([sub.f for sub in subdomains])
        engine.global_map.scatter_add(d, engine.B @ self._kplus(f))
        return d

    def primal_solution(self, lam: np.ndarray, alpha: np.ndarray) -> list[np.ndarray]:
        """Recover ``uᵢ = Kᵢ⁺ (fᵢ − B̃ᵢᵀ λ) + Rᵢ αᵢ`` (views of one vector)."""
        subdomains = self.problem.subdomains
        if not subdomains:
            return []
        engine = self.batch_engine
        f = np.concatenate([sub.f for sub in subdomains])
        u = self._kplus(f - engine.Bt @ engine.global_map.gather(lam))
        u += engine.R @ alpha
        return np.split(u, engine.primal_offsets[1:-1])

    # ------------------------------------------------------------------ #
    # Resident-storage accounting and tiering (repro.memory)              #
    # ------------------------------------------------------------------ #
    def storage_nbytes(self) -> dict[str, int]:
        """Byte-accurate resident *numeric* storage, split by kind.

        ``factor`` counts the per-subdomain numeric factors (values +
        supernodal panels + any matrix retained for refinement) — not the
        symbolic analyses they point to: those index arrays are shared across
        cache entries through the pattern cache, so they sit outside the
        per-entry budget and are reported as ``pattern_bytes`` in
        ``Session.cache_stats()`` (:attr:`repro.sparse.PatternCache.nbytes`);
        ``pack`` the assembled/packed dense dual-operator blocks (the 3-D
        batched packs, ``local_F`` dicts, device-resident ``F̃ᵢ``); and
        ``arena`` the padded apply-scratch buffers the batched engine keeps
        warm.  The session's :class:`~repro.memory.ledger.FactorLedger`
        records these per cache entry.  Stacking the factors for the ``K⁺``
        solves moves no bytes (the factors become views of their stack); the
        stack's inverse diagonal blocks (``Σ w²`` per subdomain over its
        supernode widths, a quarter to a half of the panels on the 2-D
        workloads) are derived data of a warm entry — rebuilt by the first
        solve of a round, dropped by :meth:`demote_storage` — and not counted.
        """
        factor = sum(s.storage_nbytes() for s in self._cpu_solvers.values())
        pack = self._extra_pack_nbytes()
        arena = 0
        if self._batch_engine is not None:
            for batch in self._batch_engine.clusters.values():
                if batch.dense is not None:
                    pack += int(batch.dense.blocks.nbytes)
                    arena += int(batch.dense._p_pad.nbytes)
        return {"factor": int(factor), "pack": int(pack), "arena": int(arena)}

    def _extra_pack_nbytes(self) -> int:
        """Backend hook: packed storage outside the batched engine."""
        return 0

    def demote_storage(self) -> None:
        """Halve the resident storage of a cold cache entry (fp64 → fp32).

        Called by the session's tiering only on entries it marks stale in
        the same step: the demoted factors are never read by a solve — the
        next touch re-runs the numeric preprocessing, which rebuilds every
        factor and pack at the spec's own precision.  The batched dense
        packs are dropped outright (re-preprocessing recreates them), so a
        demoted entry keeps only its structure and half-size factors warm.
        """
        self._drop_round_state()
        for solver in self._cpu_solvers.values():
            solver.demote_storage()
        if self._batch_engine is not None:
            for batch in self._batch_engine.clusters.values():
                batch.dense = None
        self._demote_pack_storage(np.dtype(np.float32))

    def _demote_pack_storage(self, dtype: np.dtype) -> None:
        """Backend hook: demote packed storage outside the batched engine."""

    # ------------------------------------------------------------------ #
    # Misc                                                                #
    # ------------------------------------------------------------------ #
    @staticmethod
    def _merge_cluster_times(times: list[float]) -> float:
        """Clusters run on different processes: the phase time is the max."""
        return max(times) if times else 0.0

    def new_thread_clocks(self, cluster: ClusterResources) -> ThreadClocks:
        """Fresh per-thread clocks for a cluster's parallel subdomain loop."""
        return ThreadClocks(cluster.n_threads)
