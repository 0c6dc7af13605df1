"""Explicit CPU dual operator (`expl mkl` / `expl cholmod` in Table III).

The preprocessing assembles every local dual operator ``F̃ᵢ`` as a dense
matrix on the CPU; the application is then a dense GEMV per subdomain.

* `expl mkl` uses the augmented-incomplete-factorization Schur complement of
  MKL PARDISO, which exploits the sparsity of ``B̃ᵢ``;
* `expl cholmod` performs plain dense TRSMs with the CHOLMOD factors and is
  therefore the slowest assembly path of the paper's comparison.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.topology import Machine
from repro.feti.config import DualOperatorApproach
from repro.feti.operators.base import DualOperatorBase
from repro.feti.problem import FetiProblem
from repro.memory.precision import demote_array
from repro.sparse.costmodel import CpuLibrary
from repro.sparse.solvers import CholmodLikeSolver, PardisoLikeSolver

__all__ = ["ExplicitCpuDualOperator"]


class ExplicitCpuDualOperator(DualOperatorBase):
    """Explicit assembly and application of ``F̃ᵢ`` on the CPU."""

    def __init__(
        self,
        problem: FetiProblem,
        machine: Machine,
        library: CpuLibrary = CpuLibrary.MKL_PARDISO,
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
        self.library = library
        self.approach = (
            DualOperatorApproach.EXPLICIT_MKL
            if library is CpuLibrary.MKL_PARDISO
            else DualOperatorApproach.EXPLICIT_CHOLMOD
        )
        solver_cls = (
            PardisoLikeSolver if library is CpuLibrary.MKL_PARDISO else CholmodLikeSolver
        )
        self._cpu_solvers = {
            s.index: solver_cls(
                pattern_cache=self.pattern_cache,
                precision=self.precision,
            )
            for s in problem.subdomains
        }
        #: The assembled dense local dual operators, filled by preprocess()
        #: (stored at the precision policy's dtype; the applies promote).
        self.local_F: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------ #
    def _prepare_impl(self) -> tuple[float, dict[str, float]]:
        breakdown: dict[str, float] = {"symbolic": 0.0}
        cluster_times = []
        for cluster, subs in self.iter_clusters():
            clocks = self.new_thread_clocks(cluster)
            for i, sub in enumerate(subs):
                solver = self._cpu_solvers[sub.index]
                symbolic = solver.analyze(sub.K_reg)
                cost = cluster.cpu.symbolic_factorization(
                    int(sub.K_reg.nnz), symbolic.nnz
                )
                clocks.advance(i, cost)
                breakdown["symbolic"] += cost
            cluster_times.append(clocks.elapsed)
        return self._merge_cluster_times(cluster_times), breakdown

    def _preprocess_impl(self) -> tuple[float, dict[str, float]]:
        # Factorization + Schur assembly of every subdomain via the runtime:
        # the serial reference loop, or sharded futures whose packed local_F
        # blocks come back as (shared-memory) views.
        round_ = self.run_feti_preprocessing(
            need_schur=True,
            exploit_rhs_sparsity=self.library is CpuLibrary.MKL_PARDISO,
            need_rhs_fill=True,
        )
        breakdown: dict[str, float] = {"schur_complement": 0.0}
        cluster_times = []
        for cluster, subs in self.iter_clusters():
            clocks = self.new_thread_clocks(cluster)
            for i, sub in enumerate(subs):
                solver = self._cpu_solvers[sub.index]
                self.local_F[sub.index] = demote_array(
                    round_[sub.index].local_F, self.precision.storage_dtype
                )
                rhs_fill = round_[sub.index].rhs_fill
                cost = cluster.cpu.schur_complement(
                    solver.factor_nnz,
                    solver.factorization_flops(),
                    sub.n_lambda,
                    rhs_fill,
                    self.library,
                    ndofs=sub.ndofs,
                )
                clocks.advance(i, cost)
                breakdown["schur_complement"] += cost
                self.batch_engine.install_dense_block(
                    cluster.cluster_id, sub.index, self.local_F[sub.index]
                )
            cluster_times.append(clocks.elapsed)
        return self._merge_cluster_times(cluster_times), breakdown

    def _apply_numerics(self, lam: np.ndarray) -> np.ndarray:
        return self._apply_packed_dense(lam)

    def _plan_apply(self, columns: int = 1) -> tuple[float, dict[str, float]]:
        """``columns`` GEMVs per subdomain on the round-robin thread clocks.

        (The cost model has no GEMM-efficiency term for a stacked apply.)
        """
        breakdown: dict[str, float] = {"gemv": 0.0}
        cluster_times = []
        for cluster, subs in self.iter_clusters():
            clocks = self.new_thread_clocks(cluster)
            if subs:
                costs = columns * np.array(
                    [cluster.cpu.gemv(s.n_lambda, s.n_lambda) for s in subs]
                )
                clocks.advance_many(costs)
                breakdown["gemv"] += float(costs.sum())
            cluster_times.append(clocks.elapsed)
        return self._merge_cluster_times(cluster_times), breakdown

    def _apply_multi_stacked(
        self, lam_block: np.ndarray
    ) -> tuple[np.ndarray, float, dict[str, float]]:
        """Stacked multi-RHS apply: one batched GEMM per cluster.

        The wall win comes from amortizing the scatter/gather and the kernel
        launch over every column; the timeline is planned per column count.
        """
        q = np.zeros_like(lam_block)
        for cluster, subs in self.iter_clusters():
            if subs:
                batch = self.batch_engine.cluster(cluster.cluster_id)
                q_stack = self.dense_matvec_multi(
                    batch, batch.dual_map.gather_multi(lam_block)
                )
                batch.dual_map.scatter_add_multi(q, q_stack)
        k = int(lam_block.shape[1])
        return q, *self._planned(k, lambda: self._plan_apply(k))

    def _extra_pack_nbytes(self) -> int:
        return sum(int(F.nbytes) for F in self.local_F.values())

    def _demote_pack_storage(self, dtype: np.dtype) -> None:
        self.local_F = {
            index: demote_array(F, dtype) for index, F in self.local_F.items()
        }
