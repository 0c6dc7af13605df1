"""Hybrid dual operator (`expl hybrid` in Table III).

This reproduces the *original* GPU acceleration attempts the paper compares
against ([3], [5] in its bibliography): the explicit local dual operators are
assembled **on the CPU** with MKL PARDISO's augmented incomplete
factorization and only copied to the GPU, where the application runs as
GEMV/SYMV.  Preprocessing therefore follows the `expl mkl` trend plus the
host-to-device copy of ``F̃ᵢ``, while the application matches the explicit
GPU approaches.
"""

from __future__ import annotations

from repro.cluster.topology import Machine
from repro.feti.config import AssemblyConfig, DualOperatorApproach
from repro.feti.operators.base import DualOperatorBase
from repro.feti.operators.explicit_gpu import (
    ExplicitGpuDualOperator,
    _ClusterState,
    _GpuState,
)
from repro.feti.problem import FetiProblem
from repro.sparse.costmodel import CpuLibrary
from repro.sparse.solvers import PardisoLikeSolver

__all__ = ["HybridDualOperator"]


class HybridDualOperator(ExplicitGpuDualOperator):
    """CPU (MKL) assembly of ``F̃ᵢ``, GPU application."""

    def __init__(
        self,
        problem: FetiProblem,
        machine: Machine,
        config: AssemblyConfig | None = None,
        pattern_cache=None,
        executor=None,
        precision="fp64",
    ) -> None:
        # Bypass the ExplicitGpuDualOperator constructor: the hybrid approach
        # owns PARDISO-like CPU solvers and never uploads factors.
        DualOperatorBase.__init__(
            self,
            problem,
            machine,
            config,
            pattern_cache=pattern_cache,
            executor=executor,
            precision=precision,
        )
        self.approach = DualOperatorApproach.EXPLICIT_HYBRID
        self._cpu_solvers = {
            s.index: PardisoLikeSolver(
                pattern_cache=self.pattern_cache,
                precision=self.precision,
            )
            for s in problem.subdomains
        }
        self._state = {s.index: _GpuState() for s in problem.subdomains}
        self._cluster_state: dict[int, _ClusterState] = {}

    # ------------------------------------------------------------------ #
    def _prepare_impl(self) -> tuple[float, dict[str, float]]:
        breakdown = {"symbolic": 0.0}
        cluster_times = []
        for cluster, subs in self.iter_clusters():
            device = cluster.device
            device.reset_timeline()
            clocks = self.new_thread_clocks(cluster)
            for i, sub in enumerate(subs):
                solver = self._cpu_solvers[sub.index]
                symbolic = solver.analyze(sub.K_reg)
                cost = cluster.cpu.symbolic_factorization(
                    int(sub.K_reg.nnz), symbolic.nnz
                )
                clocks.advance(i, cost)
                breakdown["symbolic"] += cost

                self._allocate_apply_buffers(device, sub, self._state[sub.index])

            self._setup_cluster_apply(cluster, subs)
            if device.temporary is None:
                device.allocate_temporary_arena()
            end = device.synchronize(clocks.max_time)
            cluster_times.append(end)
        return self._merge_cluster_times(cluster_times), breakdown

    def _preprocess_impl(self) -> tuple[float, dict[str, float]]:
        # CPU assembly of every F̃ᵢ via the runtime (sharded futures under a
        # parallel executor); only the host-to-device copy stays below.
        round_ = self.run_feti_preprocessing(
            need_schur=True, exploit_rhs_sparsity=True, need_rhs_fill=True
        )
        breakdown = {"schur_complement": 0.0, "upload_F": 0.0}
        cluster_times = []
        for cluster, subs in self.iter_clusters():
            device = cluster.device
            device.reset_timeline()
            clocks = self.new_thread_clocks(cluster)
            for i, sub in enumerate(subs):
                stream = cluster.stream_for(i)
                solver = self._cpu_solvers[sub.index]
                state = self._state[sub.index]
                self._ensure_pack_dtype(state)
                F = round_[sub.index].local_F
                cost = cluster.cpu.schur_complement(
                    solver.factor_nnz,
                    solver.factorization_flops(),
                    sub.n_lambda,
                    round_[sub.index].rhs_fill,
                    CpuLibrary.MKL_PARDISO,
                    ndofs=sub.ndofs,
                )
                clocks.advance(i, cost)
                breakdown["schur_complement"] += cost

                assert state.device_F is not None
                state.device_F.array[...] = F
                op = stream.submit(
                    "h2d:F",
                    device.cost_model.transfer(state.device_F.nbytes),
                    clocks.now(i),
                )
                clocks.advance(i, device.cost_model.submission_overhead_cpu)
                breakdown["upload_F"] += op.duration
                self.batch_engine.install_dense_block(cluster.cluster_id, sub.index, F)
            end = device.synchronize(clocks.max_time)
            cluster_times.append(end)
        return self._merge_cluster_times(cluster_times), breakdown
