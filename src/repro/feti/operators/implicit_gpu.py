"""Implicit GPU dual operator (`impl legacy` / `impl modern` in Table III).

The factors are computed on the CPU with the CHOLMOD-like solver (MKL
PARDISO cannot export its factors), copied to the GPU during preprocessing,
and every application performs SpMV → sparse TRSV → sparse TRSV → SpMV on
the device.  The simulated timeline replays those kernels per subdomain
stream, and the device copies of ``B̃ᵢ``, ``L`` and the vectors are byte
sizes; the numbers are those of the same factors' stacked ``K⁺`` sweep,
which the CPU implicit approaches run too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.topology import Machine
from repro.feti.config import DualOperatorApproach
from repro.feti.operators.base import DualOperatorBase
from repro.feti.problem import FetiProblem
from repro.gpu import cusparse
from repro.gpu.arrays import DeviceCsrMatrix
from repro.gpu.cusparse import SparseTrsmPlan
from repro.gpu.memory import Allocation
from repro.sparse.costmodel import CpuLibrary
from repro.sparse.solvers import CholmodLikeSolver

__all__ = ["ImplicitGpuDualOperator"]


@dataclass
class _GpuState:
    """Per-subdomain device-resident structures."""

    device_B: DeviceCsrMatrix | None = None
    device_factor: DeviceCsrMatrix | None = None
    plan: SparseTrsmPlan | None = None
    p: Allocation | None = None
    q: Allocation | None = None
    work: Allocation | None = None


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

                # Persistent structures: B̃ᵢ (columns in the factor's order),
                # the factor pattern, and the subdomain dual vectors.
                state.device_B, op = device.upload_sparse(
                    sub.B.shape, sub.B.nnz, stream, clocks.now(i), label=f"B[{sub.index}]"
                )
                clocks.advance(i, device.cost_model.submission_overhead_cpu)
                breakdown["persistent_upload"] += op.duration

                state.device_factor, op = device.upload_sparse(
                    (symbolic.n, symbolic.n), symbolic.nnz, stream, clocks.now(i),
                    label=f"L[{sub.index}]",
                )
                clocks.advance(i, device.cost_model.submission_overhead_cpu)
                breakdown["persistent_upload"] += op.duration

                state.plan, op = cusparse.trsm_analysis(
                    device, stream, state.device_factor, nrhs=1, submit_time=clocks.now(i)
                )
                clocks.advance(i, device.cost_model.submission_overhead_cpu)
                breakdown["analysis"] += op.duration

                state.p = device.memory.allocate(8 * sub.n_lambda, "p")
                state.q = device.memory.allocate(8 * sub.n_lambda, "q")
                state.work = device.memory.allocate(8 * sub.ndofs, "work")
            if device.temporary is None:
                device.allocate_temporary_arena()
            end = device.synchronize(clocks.max_time)
            cluster_times.append(end)
        return self._merge_cluster_times(cluster_times), breakdown

    def _preprocess_impl(self) -> tuple[float, dict[str, float]]:
        # The CPU-side numeric factorizations run through the runtime
        # (sharded futures under a parallel executor); the loop below charges
        # their extraction and the device uploads of their values.
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

                op = device.update_sparse_values(state.device_factor, stream, clocks.now(i))
                clocks.advance(i, device.cost_model.submission_overhead_cpu)
                breakdown["upload"] += op.duration
            end = device.synchronize(clocks.max_time)
            cluster_times.append(end)
        return self._merge_cluster_times(cluster_times), breakdown

    def _apply_numerics(self, lam: np.ndarray) -> np.ndarray:
        """``B̃ K⁺ B̃ᵀ`` as the CPU implicit approaches compute it.

        The paper copies the CHOLMOD-like CPU factors to the device, so the
        stacked ``K⁺`` sweep over those factors is this backend's apply; the
        per-subdomain TRSVs exist only in the planned timeline.
        """
        return self.apply_accurate(lam)

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
