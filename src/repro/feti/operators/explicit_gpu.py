"""Explicit GPU dual operator — the paper's contribution.

`expl legacy` / `expl modern` in Table III: the local dual operators
``F̃ᵢ = B̃ᵢ Kᵢ⁺ B̃ᵢᵀ`` are assembled **on the GPU** from the CHOLMOD factors
and applied on the GPU with GEMV/SYMV.  The assembly pipeline follows
Section IV-B/C of the paper and is fully configurable through
:class:`~repro.feti.config.AssemblyConfig` (Table I):

* **path** — ``SYRK`` (``F̃ᵢ = Wᵀ W`` with ``W = L⁻¹ B̃ᵢᵀ``) or ``TRSM``
  (two triangular solves followed by an SpMM with ``B̃ᵢ``);
* **factor storage** — sparse cuSPARSE TRSM or on-device sparse→dense
  conversion followed by dense cuBLAS TRSM;
* **factor order / RHS order** — memory orders, affecting workspace sizes
  and kernel speed (especially for the legacy cuSPARSE API);
* **scatter/gather** — whether the application-phase dual-vector
  scatter/gather runs on the CPU or the GPU.

Persistent device memory holds the sparse factors, ``B̃ᵢ``, ``F̃ᵢ`` and the
dual vectors; dense factor copies, dense right-hand sides and kernel
workspaces are taken from the blocking temporary arena for the duration of
each subdomain's assembly, exactly as described in Section IV-A.  All of
them are simulated allocations: byte sizes, not arrays.

The numbers of ``F̃ᵢ`` come from the runtime's preprocessing round, as for
every explicit approach: the interface-class Schur assembly on the
CHOLMOD-like factors, installed in the one dense pack the apply reads.  The
device kernels of the assembly and the apply are **cost-only**: each is
submitted to its subdomain's stream with its cost-model duration (and
holds its temporary buffers in the arena while it runs), but computes
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.cluster.topology import ClusterResources, Machine
from repro.feti.config import (
    AssemblyConfig,
    DualOperatorApproach,
    FactorOrder,
    FactorStorage,
    Path,
    RhsOrder,
    ScatterGatherDevice,
)
from repro.feti.operators.base import DualOperatorBase
from repro.feti.problem import FetiProblem
from repro.gpu import cusparse
from repro.gpu.arrays import DeviceCsrMatrix, MatrixOrder
from repro.gpu.cusparse import SparseTrsmPlan
from repro.gpu.memory import Allocation
from repro.sparse.costmodel import CpuLibrary
from repro.sparse.solvers import CholmodLikeSolver, SparseSolverBase

__all__ = ["ExplicitGpuDualOperator"]


def _matrix_order(order: FactorOrder | RhsOrder) -> MatrixOrder:
    return (
        MatrixOrder.ROW_MAJOR
        if order.value == "row-major"
        else MatrixOrder.COL_MAJOR
    )


@dataclass
class _GpuState:
    """Per-subdomain persistent device structures."""

    device_B: DeviceCsrMatrix | None = None
    device_factor: DeviceCsrMatrix | None = None
    forward_plan: SparseTrsmPlan | None = None
    backward_plan: SparseTrsmPlan | None = None
    F: Allocation | None = None
    p: Allocation | None = None
    q: Allocation | None = None


@dataclass
class _ClusterState:
    """Per-cluster persistent device structures (GPU scatter/gather path)."""

    #: Distinct multipliers of the cluster: the length of its dual vectors.
    n_lambda: int = 0
    dual_in: Allocation | None = None
    dual_out: Allocation | None = None


class ExplicitGpuDualOperator(DualOperatorBase):
    """Explicit assembly and application of ``F̃ᵢ`` on the GPU."""

    #: The approaches this class builds, and the CPU solver of their factors
    #: (CHOLMOD: its ``L`` is what the device assembly would read).
    approaches: ClassVar[tuple[DualOperatorApproach, ...]] = (
        DualOperatorApproach.EXPLICIT_GPU_LEGACY,
        DualOperatorApproach.EXPLICIT_GPU_MODERN,
    )
    solver_type: ClassVar[type[SparseSolverBase]] = CholmodLikeSolver

    def __init__(
        self,
        problem: FetiProblem,
        machine: Machine,
        approach: DualOperatorApproach = DualOperatorApproach.EXPLICIT_GPU_MODERN,
        config: AssemblyConfig | None = None,
        pattern_cache=None,
        executor=None,
        precision="fp64",
    ) -> None:
        super().__init__(
            problem,
            machine,
            config,
            pattern_cache=pattern_cache,
            executor=executor,
            precision=precision,
        )
        if approach not in self.approaches:
            raise ValueError(f"not an approach of {type(self).__name__}: {approach}")
        self.approach = approach
        self._cpu_solvers = {
            s.index: self.solver_type(
                pattern_cache=self.pattern_cache,
                precision=self.precision,
            )
            for s in problem.subdomains
        }
        self._state = {s.index: _GpuState() for s in problem.subdomains}
        self._cluster_state: dict[int, _ClusterState] = {}

    # ------------------------------------------------------------------ #
    # Preparation                                                         #
    # ------------------------------------------------------------------ #
    def _prepare_impl(self) -> tuple[float, dict[str, float]]:
        cfg = self.config
        breakdown = {"symbolic": 0.0, "persistent_upload": 0.0, "analysis": 0.0}
        cluster_times = []
        for cluster, subs in self.iter_clusters():
            device = cluster.device
            device.reset_timeline()
            clocks = self.new_thread_clocks(cluster)
            for i, sub in enumerate(subs):
                stream = cluster.stream_for(i)
                state = self._state[sub.index]
                solver = self._cpu_solvers[sub.index]

                symbolic = solver.analyze(sub.K_reg)
                self._schur_scatters[sub.index] = solver.schur_scatter(sub.B)
                cost = cluster.cpu.symbolic_factorization(
                    int(sub.K_reg.nnz), symbolic.nnz
                )
                clocks.advance(i, cost)
                breakdown["symbolic"] += cost

                # The device copies of B̃ᵢ and L (the factor pattern) are
                # their byte sizes: the assembly they would feed is cost-only
                # (see _preprocess_impl).
                state.device_B, op = device.upload_sparse(
                    sub.B.shape, sub.B.nnz, stream, clocks.now(i), label=f"B[{sub.index}]"
                )
                clocks.advance(i, device.cost_model.submission_overhead_cpu)
                breakdown["persistent_upload"] += op.duration

                state.device_factor, op = device.upload_sparse(
                    (symbolic.n, symbolic.n), symbolic.nnz, stream, clocks.now(i),
                    order=_matrix_order(cfg.forward_factor_order),
                    label=f"L[{sub.index}]",
                )
                clocks.advance(i, device.cost_model.submission_overhead_cpu)
                breakdown["persistent_upload"] += op.duration

                # Sparse TRSM analysis (only for sparse factor storage).
                rhs_order = _matrix_order(cfg.rhs_order)
                if cfg.forward_factor_storage is FactorStorage.SPARSE:
                    state.forward_plan, op = cusparse.trsm_analysis(
                        device, stream, state.device_factor, nrhs=sub.n_lambda,
                        submit_time=clocks.now(i), rhs_order=rhs_order,
                    )
                    clocks.advance(i, device.cost_model.submission_overhead_cpu)
                    breakdown["analysis"] += op.duration
                if (
                    cfg.path is Path.TRSM
                    and cfg.backward_factor_storage is FactorStorage.SPARSE
                ):
                    state.backward_plan, op = cusparse.trsm_analysis(
                        device, stream, state.device_factor, nrhs=sub.n_lambda,
                        submit_time=clocks.now(i), rhs_order=rhs_order,
                    )
                    clocks.advance(i, device.cost_model.submission_overhead_cpu)
                    breakdown["analysis"] += op.duration

                self._allocate_apply_buffers(device, sub, state)

            # Cluster-wide dual vectors (GPU scatter/gather path).
            self._setup_cluster_apply(cluster, subs)

            if device.temporary is None:
                device.allocate_temporary_arena()
            end = device.synchronize(clocks.max_time)
            cluster_times.append(end)
        return self._merge_cluster_times(cluster_times), breakdown

    def _f_nbytes(self, sub) -> int:
        """Bytes of one device ``F̃ᵢ`` (the dominant persistent allocation).

        At the precision policy's storage dtype, halved when only a triangle
        is stored for the SYMV apply.
        """
        f_bytes = self.precision.storage_dtype.itemsize * sub.n_lambda * sub.n_lambda
        return f_bytes // 2 if self.config.apply_symmetric else f_bytes

    def _allocate_apply_buffers(self, device, sub, state: _GpuState) -> None:
        """Persistent ``F̃ᵢ`` and dual vectors of one subdomain (shared with the hybrid)."""
        state.F = device.memory.allocate(self._f_nbytes(sub), f"F[{sub.index}]")
        state.p = device.memory.allocate(8 * sub.n_lambda, "p")
        state.q = device.memory.allocate(8 * sub.n_lambda, "q")

    def _setup_cluster_apply(self, cluster: ClusterResources, subs) -> None:
        """The cluster dual vectors of the GPU scatter/gather path (shared with the hybrid)."""
        device = cluster.device
        n_lambda = (
            np.unique(np.concatenate([s.lambda_ids for s in subs])).size if subs else 0
        )
        cstate = _ClusterState(n_lambda=int(n_lambda))
        if n_lambda:
            cstate.dual_in = device.memory.allocate(8 * n_lambda, "cluster-dual-in")
            cstate.dual_out = device.memory.allocate(8 * n_lambda, "cluster-dual-out")
        self._cluster_state[cluster.cluster_id] = cstate

    # ------------------------------------------------------------------ #
    # Preprocessing (the accelerated explicit assembly)                   #
    # ------------------------------------------------------------------ #
    def _preprocess_impl(self) -> tuple[float, dict[str, float]]:
        # The numerics come from the runtime round (the stacked factorization
        # and the interface-class assembly on the CHOLMOD-like factors); the
        # loop below replays the device assembly's kernels for the timeline:
        # the same stream submissions, durations and temporary-arena traffic.
        local_F = self.run_feti_preprocessing(need_schur=True)
        cfg = self.config
        breakdown = dict.fromkeys(
            ("numeric_factorization", "factor_upload", "sparse_to_dense", "trsm", "syrk", "spmm"),
            0.0,
        )
        need_dense = cfg.forward_factor_storage is FactorStorage.DENSE or (
            cfg.path is Path.TRSM and cfg.backward_factor_storage is FactorStorage.DENSE
        )
        cluster_times = []
        for cluster, subs in self.iter_clusters():
            device = cluster.device
            device.reset_timeline()
            arena = device.require_temporary()
            cost = device.cost_model
            clocks = self.new_thread_clocks(cluster)
            # CPU cost of factorization + extraction: a function of the pattern.
            factor_costs: dict[int, float] = {}
            for i, sub in enumerate(subs):
                stream = cluster.stream_for(i)
                state = self._state[sub.index]
                solver = self._cpu_solvers[sub.index]

                def kernel(key: str, label: str, duration: float) -> None:
                    op = stream.submit(label, duration, clocks.now(i))
                    clocks.advance(i, cost.submission_overhead_cpu)
                    breakdown[key] += op.duration

                pattern = id(solver.symbolic)
                if pattern not in factor_costs:
                    factor_costs[pattern] = cluster.cpu.numeric_factorization(
                        solver.factorization_flops(), solver.factor_nnz, CpuLibrary.CHOLMOD
                    ) + cluster.cpu.factor_extraction(solver.factor_nnz)
                clocks.advance(i, factor_costs[pattern])
                breakdown["numeric_factorization"] += factor_costs[pattern]

                L = state.device_factor
                kernel("factor_upload", f"h2d-values:{L.label}", cost.transfer(8 * L.nnz))

                # Temporary buffers: dense RHS (and dense factor if needed).
                ndofs, n_lambda = sub.ndofs, sub.n_lambda
                temporaries = [arena.allocate(8 * ndofs * n_lambda, "dense-rhs")]
                kernel(
                    "sparse_to_dense",
                    "cusparse.sparse_to_dense",
                    cost.sparse_to_dense(ndofs, n_lambda, state.device_B.nnz),
                )
                if need_dense:
                    temporaries.append(arena.allocate(8 * ndofs * ndofs, "dense-factor"))
                    kernel(
                        "sparse_to_dense",
                        "cusparse.sparse_to_dense",
                        cost.sparse_to_dense(ndofs, ndofs, L.nnz),
                    )

                # Forward solve W = L⁻¹ B̃ᵢᵀ, then F̃ᵢ = WᵀW (SYRK) or
                # Z = L⁻ᵀ W and F̃ᵢ = B̃ᵢ Z (TRSM).
                self._triangular_solve(
                    kernel, cost, arena, state.forward_plan, cfg.forward_factor_storage,
                    ndofs, n_lambda,
                )
                if cfg.path is Path.SYRK:
                    kernel("syrk", "cublas.syrk", cost.syrk(n_lambda, ndofs))
                else:
                    self._triangular_solve(
                        kernel, cost, arena, state.backward_plan, cfg.backward_factor_storage,
                        ndofs, n_lambda,
                    )
                    kernel("spmm", "cusparse.spmm", cost.spmm(state.device_B.nnz, n_lambda))

                # Temporary buffers are only needed until the kernels finish.
                for allocation in temporaries:
                    allocation.release()

                self.batch_engine.install_dense_block(sub.index, local_F.pop(sub.index))
            end = device.synchronize(clocks.max_time)
            cluster_times.append(end)
        return self._merge_cluster_times(cluster_times), breakdown

    @staticmethod
    def _triangular_solve(
        kernel,
        cost,
        arena,
        plan: SparseTrsmPlan | None,
        storage: FactorStorage,
        ndofs: int,
        n_lambda: int,
    ) -> None:
        """One triangular solve of the assembly: dense cuBLAS or sparse cuSPARSE.

        The sparse solve holds its temporary workspace for the kernel's
        duration.
        """
        if storage is FactorStorage.DENSE:
            kernel("trsm", "cublas.trsm", cost.dense_trsm(ndofs, n_lambda))
            return
        assert plan is not None
        workspace = None
        if plan.temporary_bytes > 0:
            workspace = arena.allocate(plan.temporary_bytes, label="cusparse-trsm-buffer")
        duration = cost.sparse_trsm(
            plan.factor_nnz, ndofs, n_lambda, plan.version, plan.csc_factor,
            plan.col_major_rhs,
        )
        kernel("trsm", "cusparse.trsm", duration)
        if workspace is not None:
            workspace.release()

    # ------------------------------------------------------------------ #
    # Application                                                         #
    # ------------------------------------------------------------------ #
    def _plan_apply(self) -> tuple[float, dict[str, float]]:
        if self.config.scatter_gather is ScatterGatherDevice.GPU:
            return self._plan_gpu_scatter()
        return self._plan_cpu_scatter()

    def _mv_kernel(self, cost_model, n_lambda: int) -> tuple[str, float]:
        """Stream label and duration of one subdomain's application kernel."""
        if self.config.apply_symmetric:
            return "cublas.symv", cost_model.symv(n_lambda)
        return "cublas.gemv", cost_model.gemv(n_lambda, n_lambda)

    def _apply_numerics(self, lam: np.ndarray) -> np.ndarray:
        """All per-subdomain GEMVs as one batched MV over the packed ``F̃ᵢ``.

        Both scatter/gather settings compute the same sums, so they share
        the one-pack apply; where the scatter runs shows only in the planned
        timeline (:meth:`_plan_gpu_scatter` / :meth:`_plan_cpu_scatter`).
        """
        return self._apply_packed_dense(lam)

    def _plan_gpu_scatter(self) -> tuple[float, dict[str, float]]:
        """Timeline of the GPU scatter/gather apply (stream submissions only)."""
        breakdown = {"transfer": 0.0, "scatter_gather": 0.0, "mv": 0.0}
        cluster_times = []
        for cluster, subs in self.iter_clusters():
            if not subs:
                cluster_times.append(0.0)
                continue
            device = cluster.device
            device.reset_timeline()
            clocks = self.new_thread_clocks(cluster)
            cost = device.cost_model
            overhead = cost.submission_overhead_cpu
            main_stream = cluster.stream_for(0)
            dual_transfer = cost.transfer(8 * self._cluster_state[cluster.cluster_id].n_lambda)
            scatter_gather = cost.scatter_gather(sum(s.n_lambda for s in subs))

            # One H2D copy of the cluster-wide dual vector + one scatter kernel.
            op = main_stream.submit("h2d:cluster-dual", dual_transfer, clocks.now(0))
            breakdown["transfer"] += op.duration
            scatter_op = main_stream.submit("gpu.scatter", scatter_gather, op.end_time)
            breakdown["scatter_gather"] += scatter_op.duration
            clocks.advance(0, 2 * overhead)

            # GEMV/SYMV kernels on per-subdomain streams, after the scatter.
            for i, sub in enumerate(subs):
                stream = cluster.stream_for(i)
                stream.wait_for(scatter_op.end_time)
                op = stream.submit(*self._mv_kernel(cost, sub.n_lambda), clocks.now(i))
                clocks.advance(i, overhead)
                breakdown["mv"] += op.duration

            # One gather kernel + one D2H copy after all GEMVs finish.
            main_stream.wait_for(max(s.tail for s in cluster.streams))
            gather_op = main_stream.submit("gpu.gather", scatter_gather, clocks.max_time)
            breakdown["scatter_gather"] += gather_op.duration
            op = main_stream.submit("d2h:cluster-dual", dual_transfer, gather_op.end_time)
            breakdown["transfer"] += op.duration
            cluster_times.append(device.synchronize(clocks.max_time))
        return self._merge_cluster_times(cluster_times), breakdown

    def _plan_cpu_scatter(self) -> tuple[float, dict[str, float]]:
        """Timeline of the CPU scatter/gather apply: H2D / kernel / D2H per subdomain."""
        breakdown = {"transfer": 0.0, "mv": 0.0}
        cluster_times = []
        for cluster, subs in self.iter_clusters():
            if not subs:
                cluster_times.append(0.0)
                continue
            device = cluster.device
            device.reset_timeline()
            clocks = self.new_thread_clocks(cluster)
            cost = device.cost_model
            overhead = cost.submission_overhead_cpu
            for i, sub in enumerate(subs):
                stream = cluster.stream_for(i)
                transfer = cost.transfer(8 * sub.n_lambda)
                for key, (label, duration) in (
                    ("transfer", ("h2d:p", transfer)),
                    ("mv", self._mv_kernel(cost, sub.n_lambda)),
                    ("transfer", ("d2h:q", transfer)),
                ):
                    op = stream.submit(label, duration, clocks.now(i))
                    breakdown[key] += op.duration
                    clocks.advance(i, overhead)
            cluster_times.append(device.synchronize(clocks.max_time))
        return self._merge_cluster_times(cluster_times), breakdown
