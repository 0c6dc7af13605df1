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
each subdomain's assembly, exactly as described in Section IV-A.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

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
from repro.feti.operators.batch import FlatIndexMap
from repro.feti.problem import FetiProblem
from repro.gpu import cublas, cusparse
from repro.gpu.arrays import (
    DeviceCsrMatrix,
    DeviceDenseMatrix,
    DeviceVector,
    MatrixOrder,
)
from repro.gpu.cusparse import SparseTrsmPlan
from repro.sparse.costmodel import CpuLibrary
from repro.sparse.solvers import CholmodLikeSolver

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

    perm: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    device_B: DeviceCsrMatrix | None = None
    device_factor: DeviceCsrMatrix | None = None
    device_F: DeviceDenseMatrix | None = None
    forward_plan: SparseTrsmPlan | None = None
    backward_plan: SparseTrsmPlan | None = None
    p_vec: DeviceVector | None = None
    q_vec: DeviceVector | None = None
    cluster_positions: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )


@dataclass
class _ClusterState:
    """Per-cluster persistent device structures (GPU scatter/gather path)."""

    lambda_ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    dual_in: DeviceVector | None = None
    dual_out: DeviceVector | None = None


class ExplicitGpuDualOperator(DualOperatorBase):
    """Explicit assembly and application of ``F̃ᵢ`` on the GPU."""

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
        if approach not in (
            DualOperatorApproach.EXPLICIT_GPU_LEGACY,
            DualOperatorApproach.EXPLICIT_GPU_MODERN,
        ):
            raise ValueError(f"not an explicit GPU approach: {approach}")
        self.approach = approach
        self._cpu_solvers = {
            s.index: CholmodLikeSolver(
                pattern_cache=self.pattern_cache,
                precision=self.precision,
            )
            for s in problem.subdomains
        }
        self._state = {s.index: _GpuState() for s in problem.subdomains}
        self._cluster_state: dict[int, _ClusterState] = {}

    # ------------------------------------------------------------------ #
    # Resident storage (repro.memory)                                     #
    # ------------------------------------------------------------------ #
    def _extra_pack_nbytes(self) -> int:
        total = 0
        for state in self._state.values():
            if state.device_F is not None:
                total += int(state.device_F.array.nbytes)
            if state.device_factor is not None:
                m = state.device_factor.matrix
                total += int(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)
        return total

    def _demote_pack_storage(self, dtype: np.dtype) -> None:
        # Safe while the entry is stale: _ensure_pack_dtype() restores the
        # policy's storage dtype before the next assembly writes into it,
        # and the device factor values are re-uploaded wholesale.
        for state in self._state.values():
            if state.device_F is not None and state.device_F.array.dtype != dtype:
                state.device_F.array = state.device_F.array.astype(dtype)
            m = state.device_factor
            if m is not None and m.matrix.dtype != dtype:
                m.matrix = m.matrix.astype(dtype)
                m._prepared_tri = None

    def _ensure_pack_dtype(self, state: _GpuState) -> None:
        """Restore a demoted ``F̃ᵢ`` buffer to the policy's storage dtype."""
        want = self.precision.storage_dtype
        if state.device_F is not None and state.device_F.array.dtype != want:
            state.device_F.array = np.zeros(state.device_F.array.shape, dtype=want)

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
                cost = cluster.cpu.symbolic_factorization(
                    int(sub.K_reg.nnz), symbolic.nnz
                )
                clocks.advance(i, cost)
                breakdown["symbolic"] += cost
                state.perm = symbolic.perm

                B_perm = sub.B[:, symbolic.perm].tocsr()
                state.device_B, op = device.upload_sparse(
                    B_perm, stream, clocks.now(i), label=f"B[{sub.index}]"
                )
                clocks.advance(i, device.cost_model.submission_overhead_cpu)
                breakdown["persistent_upload"] += op.duration

                pattern = sp.csc_matrix(
                    (
                        np.zeros(symbolic.nnz),
                        symbolic.row_idx.copy(),
                        symbolic.col_ptr.copy(),
                    ),
                    shape=(symbolic.n, symbolic.n),
                ).tocsr()
                factor_order = _matrix_order(cfg.forward_factor_order)
                state.device_factor, op = device.upload_sparse(
                    pattern, stream, clocks.now(i),
                    order=factor_order, label=f"L[{sub.index}]",
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

    def _allocate_apply_buffers(self, device, sub, state: _GpuState) -> None:
        """Persistent ``F̃ᵢ`` and dual vectors of one subdomain (shared with the hybrid).

        The ``F̃ᵢ`` buffer is the dominant persistent allocation and follows
        the precision policy's storage dtype (half-size under fp32 storage).
        """
        f_dtype = self.precision.storage_dtype
        f_bytes = f_dtype.itemsize * sub.n_lambda * sub.n_lambda
        if self.config.apply_symmetric:
            f_bytes //= 2
        state.device_F = DeviceDenseMatrix(
            array=np.zeros((sub.n_lambda, sub.n_lambda), dtype=f_dtype),
            order=_matrix_order(self.config.rhs_order),
            symmetric_triangle=self.config.apply_symmetric,
            allocation=device.memory.allocate(f_bytes, f"F[{sub.index}]"),
        )
        state.p_vec = DeviceVector(
            array=np.zeros(sub.n_lambda),
            allocation=device.memory.allocate(8 * sub.n_lambda, "p"),
        )
        state.q_vec = DeviceVector(
            array=np.zeros(sub.n_lambda),
            allocation=device.memory.allocate(8 * sub.n_lambda, "q"),
        )

    def _setup_cluster_apply(self, cluster: ClusterResources, subs) -> None:
        """Build the cluster-wide apply structures (shared with the hybrid).

        Allocates the cluster dual vectors of the GPU scatter/gather path,
        computes every subdomain's positions inside them and flattens those
        positions into one fancy-index map.
        """
        device = cluster.device
        cluster_lambdas = (
            np.unique(np.concatenate([s.lambda_ids for s in subs]))
            if subs
            else np.empty(0, dtype=np.int64)
        )
        cstate = _ClusterState(lambda_ids=cluster_lambdas)
        if cluster_lambdas.size:
            nbytes = 8 * cluster_lambdas.size
            cstate.dual_in = DeviceVector(
                array=np.zeros(cluster_lambdas.size),
                allocation=device.memory.allocate(nbytes, "cluster-dual-in"),
            )
            cstate.dual_out = DeviceVector(
                array=np.zeros(cluster_lambdas.size),
                allocation=device.memory.allocate(nbytes, "cluster-dual-out"),
            )
        self._cluster_state[cluster.cluster_id] = cstate
        for sub in subs:
            self._state[sub.index].cluster_positions = np.searchsorted(
                cluster_lambdas, sub.lambda_ids
            )
        batch = self.batch_engine.cluster(cluster.cluster_id)
        batch.aux_map = FlatIndexMap(
            [self._state[s.index].cluster_positions for s in subs]
        )

    # ------------------------------------------------------------------ #
    # Preprocessing (the accelerated explicit assembly)                   #
    # ------------------------------------------------------------------ #
    def _preprocess_impl(self) -> tuple[float, dict[str, float]]:
        # CPU-side numeric factorizations via the runtime (sharded futures
        # under a parallel executor); the simulated device assembly below
        # consumes the adopted factors.
        self.run_feti_preprocessing()
        cfg = self.config
        breakdown = {
            "numeric_factorization": 0.0,
            "factor_upload": 0.0,
            "sparse_to_dense": 0.0,
            "trsm": 0.0,
            "syrk": 0.0,
            "spmm": 0.0,
        }
        cluster_times = []
        for cluster, subs in self.iter_clusters():
            device = cluster.device
            device.reset_timeline()
            arena = device.require_temporary()
            clocks = self.new_thread_clocks(cluster)
            for i, sub in enumerate(subs):
                stream = cluster.stream_for(i)
                state = self._state[sub.index]
                solver = self._cpu_solvers[sub.index]
                self._ensure_pack_dtype(state)

                # CPU cost: numeric factorization + factor extraction.
                fact_cost = cluster.cpu.numeric_factorization(
                    solver.factorization_flops(), solver.factor_nnz, CpuLibrary.CHOLMOD
                )
                extract_cost = cluster.cpu.factor_extraction(solver.factor_nnz)
                clocks.advance(i, fact_cost + extract_cost)
                breakdown["numeric_factorization"] += fact_cost + extract_cost

                factor = solver.extract_factor()
                lower_csr = factor.to_csc().tocsr()
                op = device.update_sparse_values(
                    state.device_factor, lower_csr, stream, clocks.now(i)
                )
                clocks.advance(i, device.cost_model.submission_overhead_cpu)
                breakdown["factor_upload"] += op.duration

                # Temporary buffers: dense RHS (and dense factor if needed).
                ndofs, n_lambda = sub.ndofs, sub.n_lambda
                rhs_alloc = arena.allocate(8 * ndofs * n_lambda, "dense-rhs")
                rhs = DeviceDenseMatrix(
                    array=np.zeros((ndofs, n_lambda)),
                    order=_matrix_order(cfg.rhs_order),
                    allocation=rhs_alloc,
                )
                op = cusparse.sparse_to_dense(
                    device, stream, state.device_B, rhs, clocks.now(i), transpose=True
                )
                clocks.advance(i, device.cost_model.submission_overhead_cpu)
                breakdown["sparse_to_dense"] += op.duration

                dense_factor: DeviceDenseMatrix | None = None
                need_dense = (
                    cfg.forward_factor_storage is FactorStorage.DENSE
                    or (
                        cfg.path is Path.TRSM
                        and cfg.backward_factor_storage is FactorStorage.DENSE
                    )
                )
                if need_dense:
                    dense_alloc = arena.allocate(8 * ndofs * ndofs, "dense-factor")
                    dense_factor = DeviceDenseMatrix(
                        array=np.zeros((ndofs, ndofs)),
                        order=_matrix_order(cfg.forward_factor_order),
                        allocation=dense_alloc,
                    )
                    op = cusparse.sparse_to_dense(
                        device, stream, state.device_factor, dense_factor, clocks.now(i)
                    )
                    clocks.advance(i, device.cost_model.submission_overhead_cpu)
                    breakdown["sparse_to_dense"] += op.duration

                # Forward solve: W = L⁻¹ (B̃ᵢᵀ, permuted & dense).
                op = self._triangular_solve(
                    cluster, stream, state, rhs, dense_factor,
                    storage=cfg.forward_factor_storage, transpose=False,
                    plan=state.forward_plan, submit_time=clocks.now(i), arena=arena,
                )
                clocks.advance(i, device.cost_model.submission_overhead_cpu)
                breakdown["trsm"] += op.duration

                assert state.device_F is not None
                if cfg.path is Path.SYRK:
                    op = cublas.syrk(
                        device, stream, rhs, state.device_F, clocks.now(i), transpose=True
                    )
                    clocks.advance(i, device.cost_model.submission_overhead_cpu)
                    breakdown["syrk"] += op.duration
                else:
                    # Backward solve: Z = L⁻ᵀ W, then F̃ᵢ = B̃ᵢ Z.
                    op = self._triangular_solve(
                        cluster, stream, state, rhs, dense_factor,
                        storage=cfg.backward_factor_storage, transpose=True,
                        plan=state.backward_plan, submit_time=clocks.now(i), arena=arena,
                    )
                    clocks.advance(i, device.cost_model.submission_overhead_cpu)
                    breakdown["trsm"] += op.duration
                    op = cusparse.spmm(
                        device, stream, state.device_B, rhs, state.device_F, clocks.now(i)
                    )
                    clocks.advance(i, device.cost_model.submission_overhead_cpu)
                    breakdown["spmm"] += op.duration

                # Temporary buffers are only needed until the kernels finish.
                rhs.release()
                if dense_factor is not None:
                    dense_factor.release()

                self.batch_engine.install_dense_block(
                    cluster.cluster_id, sub.index, state.device_F.array
                )
            end = device.synchronize(clocks.max_time)
            cluster_times.append(end)
        return self._merge_cluster_times(cluster_times), breakdown

    def _triangular_solve(
        self,
        cluster: ClusterResources,
        stream,
        state: _GpuState,
        rhs: DeviceDenseMatrix,
        dense_factor: DeviceDenseMatrix | None,
        storage: FactorStorage,
        transpose: bool,
        plan: SparseTrsmPlan | None,
        submit_time: float,
        arena,
    ):
        """One triangular solve of the assembly, sparse or dense."""
        device = cluster.device
        if storage is FactorStorage.DENSE:
            assert dense_factor is not None
            return cublas.trsm(
                device, stream, dense_factor, rhs, submit_time,
                lower=True, transpose=transpose,
            )
        assert plan is not None and state.device_factor is not None
        return cusparse.trsm(
            device, stream, plan, state.device_factor, rhs, submit_time,
            transpose=transpose, arena=arena,
        )

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

        The CPU scatter/gather path is one ``take`` / ``np.add.at`` over the
        flattened ``lambda_ids``; the GPU path routes through the cluster-wide
        device dual vectors and the flattened cluster-position maps.
        """
        if self.config.scatter_gather is not ScatterGatherDevice.GPU:
            return self._apply_packed_dense(lam)
        q = np.zeros_like(lam)
        for cluster, subs in self.iter_clusters():
            if not subs:
                continue
            batch = self.batch_engine.cluster(cluster.cluster_id)
            cstate = self._cluster_state[cluster.cluster_id]
            assert cstate.dual_in is not None and cstate.dual_out is not None
            assert batch.aux_map is not None
            cstate.dual_in.array[...] = lam[cstate.lambda_ids]
            cstate.dual_out.array[...] = 0.0
            q_concat = self.dense_matvec(
                batch, batch.aux_map.gather(cstate.dual_in.array)
            )
            batch.aux_map.scatter_add(cstate.dual_out.array, q_concat)
            np.add.at(q, cstate.lambda_ids, cstate.dual_out.array)
        return q

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
            dual_transfer = cost.transfer(
                8 * self._cluster_state[cluster.cluster_id].lambda_ids.size
            )
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
