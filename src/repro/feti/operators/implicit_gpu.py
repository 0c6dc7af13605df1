"""Implicit GPU dual operator (`impl legacy` / `impl modern` in Table III).

The factors are computed on the CPU with the CHOLMOD-like solver (MKL
PARDISO cannot export its factors), copied to the GPU during preprocessing,
and every application performs SpMV → sparse TRSV → sparse TRSV → SpMV on
the device.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.cluster.topology import Machine
from repro.feti.config import DualOperatorApproach
from repro.feti.operators.base import DualOperatorBase
from repro.feti.problem import FetiProblem
from repro.gpu import cusparse
from repro.gpu.arrays import DeviceCsrMatrix, DeviceVector
from repro.gpu.cusparse import SparseTrsmPlan
from repro.sparse.costmodel import CpuLibrary
from repro.sparse.solvers import CholmodLikeSolver

__all__ = ["ImplicitGpuDualOperator"]


@dataclass
class _GpuState:
    """Per-subdomain device-resident structures."""

    device_B: DeviceCsrMatrix | None = None
    device_factor: DeviceCsrMatrix | None = None
    plan: SparseTrsmPlan | None = None
    p_vec: DeviceVector | None = None
    q_vec: DeviceVector | None = None
    work_vec: DeviceVector | None = None
    perm: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))


class ImplicitGpuDualOperator(DualOperatorBase):
    """Implicit application of ``F̃ᵢ`` on the GPU with CHOLMOD factors."""

    def __init__(
        self,
        problem: FetiProblem,
        machine: Machine,
        approach: DualOperatorApproach = DualOperatorApproach.IMPLICIT_GPU_MODERN,
        pattern_cache=None,
        executor=None,
        precision="fp64",
    ) -> None:
        super().__init__(
            problem,
            machine,
            pattern_cache=pattern_cache,
            executor=executor,
            precision=precision,
        )
        if approach not in (
            DualOperatorApproach.IMPLICIT_GPU_LEGACY,
            DualOperatorApproach.IMPLICIT_GPU_MODERN,
        ):
            raise ValueError(f"not an implicit GPU approach: {approach}")
        self.approach = approach
        self._cpu_solvers = {
            s.index: CholmodLikeSolver(
                pattern_cache=self.pattern_cache,
                precision=self.precision,
            )
            for s in problem.subdomains
        }
        self._state = {s.index: _GpuState() for s in problem.subdomains}

    def _extra_pack_nbytes(self) -> int:
        # The device-resident factor copies (re-uploaded every preprocess)
        # follow the precision policy: their values mirror the CPU factors.
        total = 0
        for state in self._state.values():
            if state.device_factor is not None:
                m = state.device_factor.matrix
                total += int(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)
        return total

    def _demote_pack_storage(self, dtype: np.dtype) -> None:
        # Safe while the entry is stale: the next preprocess replaces the
        # device matrix wholesale via update_sparse_values().
        for state in self._state.values():
            m = state.device_factor
            if m is not None and m.matrix.dtype != dtype:
                m.matrix = m.matrix.astype(dtype)
                m._prepared_tri = None

    # ------------------------------------------------------------------ #
    def _prepare_impl(self) -> tuple[float, dict[str, float]]:
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

                # Persistent structures: B̃ᵢ (permuted columns), the factor
                # pattern, and the subdomain dual vectors.
                B_perm = sub.B[:, symbolic.perm].tocsr()
                now = clocks.now(i)
                state.device_B, op = device.upload_sparse(
                    B_perm, stream, now, label=f"B[{sub.index}]"
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
                state.device_factor, op = device.upload_sparse(
                    pattern, stream, clocks.now(i), label=f"L[{sub.index}]"
                )
                clocks.advance(i, device.cost_model.submission_overhead_cpu)
                breakdown["persistent_upload"] += op.duration

                state.plan, op = cusparse.trsm_analysis(
                    device, stream, state.device_factor, nrhs=1, submit_time=clocks.now(i)
                )
                clocks.advance(i, device.cost_model.submission_overhead_cpu)
                breakdown["analysis"] += op.duration

                state.p_vec = DeviceVector(
                    array=np.zeros(sub.n_lambda),
                    allocation=device.memory.allocate(8 * sub.n_lambda, "p"),
                )
                state.q_vec = DeviceVector(
                    array=np.zeros(sub.n_lambda),
                    allocation=device.memory.allocate(8 * sub.n_lambda, "q"),
                )
                state.work_vec = DeviceVector(
                    array=np.zeros(sub.ndofs),
                    allocation=device.memory.allocate(8 * sub.ndofs, "work"),
                )
            if device.temporary is None:
                device.allocate_temporary_arena()
            end = device.synchronize(clocks.max_time)
            cluster_times.append(end)
        return self._merge_cluster_times(cluster_times), breakdown

    def _preprocess_impl(self) -> tuple[float, dict[str, float]]:
        # The CPU-side numeric factorizations run through the runtime
        # (sharded futures under a parallel executor); the device uploads
        # below consume the adopted factors.
        self.run_feti_preprocessing()
        breakdown = {"numeric_factorization": 0.0, "factor_extraction": 0.0, "upload": 0.0}
        cluster_times = []
        for cluster, subs in self.iter_clusters():
            device = cluster.device
            device.reset_timeline()
            clocks = self.new_thread_clocks(cluster)
            for i, sub in enumerate(subs):
                stream = cluster.stream_for(i)
                state = self._state[sub.index]
                solver = self._cpu_solvers[sub.index]

                fact_cost = cluster.cpu.numeric_factorization(
                    solver.factorization_flops(), solver.factor_nnz, CpuLibrary.CHOLMOD
                )
                extract_cost = cluster.cpu.factor_extraction(solver.factor_nnz)
                clocks.advance(i, fact_cost + extract_cost)
                breakdown["numeric_factorization"] += fact_cost
                breakdown["factor_extraction"] += extract_cost

                factor = solver.extract_factor()
                op = device.update_sparse_values(
                    state.device_factor, factor.to_csc().tocsr(), stream, clocks.now(i)
                )
                clocks.advance(i, device.cost_model.submission_overhead_cpu)
                breakdown["upload"] += op.duration
            end = device.synchronize(clocks.max_time)
            cluster_times.append(end)
        return self._merge_cluster_times(cluster_times), breakdown

    def _apply_numerics(self, lam: np.ndarray) -> np.ndarray:
        """SpMV → TRSV → TRSV → SpMV per subdomain, batched scatter/gather.

        The sparse solves are inherently per-subdomain; the dual traffic is
        one flat-map ``take`` and one ``np.add.at`` per cluster.
        """
        q = np.zeros_like(lam)
        for cluster, subs in self.iter_clusters():
            if not subs:
                continue
            batch = self.batch_engine.cluster(cluster.cluster_id)
            p_concat = batch.dual_map.gather(lam)
            q_concat = np.empty_like(p_concat)
            for i, sub in enumerate(subs):
                state = self._state[sub.index]
                assert state.device_B is not None and state.device_factor is not None
                local = batch.dual_map.slice_of(i)
                # Prepared once per factor upload; repeated TRSVs inside the
                # PCPG iteration stop paying the CSC conversion cost.
                lower = cusparse.prepared_lower_factor(state.device_factor)
                B = state.device_B.matrix
                z = lower.solve_upper(lower.solve_lower(B.T @ p_concat[local]))
                q_concat[local] = B @ z
            batch.dual_map.scatter_add(q, q_concat)
        return q

    def _plan_apply(self) -> tuple[float, dict[str, float]]:
        """H2D, SpMV, two TRSVs, SpMV and D2H per subdomain on its stream."""
        breakdown = {"transfer": 0.0, "spmv": 0.0, "trsv": 0.0}
        cluster_times = []
        for cluster, subs in self.iter_clusters():
            device = cluster.device
            device.reset_timeline()
            clocks = self.new_thread_clocks(cluster)
            cost = device.cost_model
            overhead = cost.submission_overhead_cpu
            for i, sub in enumerate(subs):
                stream = cluster.stream_for(i)
                state = self._state[sub.index]
                assert state.device_B is not None and state.device_factor is not None
                transfer = cost.transfer(8 * sub.n_lambda)
                spmv = cost.spmv(state.device_B.nnz)
                trsv = cost.sparse_trsm(
                    state.device_factor.nnz, sub.ndofs, 1, device.cuda_version
                )
                for key, label, duration in (
                    ("transfer", "h2d:p", transfer),
                    ("spmv", "cusparse.spmv", spmv),
                    ("trsv", "cusparse.trsv_fwd", trsv),
                    ("trsv", "cusparse.trsv_bwd", trsv),
                    ("spmv", "cusparse.spmv", spmv),
                    ("transfer", "d2h:q", transfer),
                ):
                    op = stream.submit(label, duration, clocks.now(i))
                    breakdown[key] += op.duration
                    clocks.advance(i, overhead)
            cluster_times.append(device.synchronize(clocks.max_time))
        return self._merge_cluster_times(cluster_times), breakdown
