"""Implicit CPU dual operator (`impl mkl` / `impl cholmod` in Table III).

The traditional approach: the FETI preprocessing only factorizes the
regularized subdomain stiffness matrices; every application evaluates

    ``q̃ᵢ = B̃ᵢ (Uᵢ⁻¹ (Lᵢ⁻¹ (B̃ᵢᵀ p̃ᵢ)))``

right-to-left with a sparse SpMV, two triangular solves and another SpMV
(equation (13) of the paper).
"""

from __future__ import annotations

import numpy as np

from repro.cluster.topology import Machine
from repro.feti.config import DualOperatorApproach
from repro.feti.operators.base import DualOperatorBase
from repro.feti.problem import FetiProblem
from repro.sparse.costmodel import CpuLibrary
from repro.sparse.solvers import CholmodLikeSolver, PardisoLikeSolver

__all__ = ["ImplicitCpuDualOperator"]


class ImplicitCpuDualOperator(DualOperatorBase):
    """Implicit application of ``F̃ᵢ`` on the CPU."""

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
            DualOperatorApproach.IMPLICIT_MKL
            if library is CpuLibrary.MKL_PARDISO
            else DualOperatorApproach.IMPLICIT_CHOLMOD
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
        # Numeric factorization of every subdomain: serial reference loop or
        # sharded futures, depending on the operator's executor.
        self.run_feti_preprocessing()
        breakdown: dict[str, float] = {"numeric_factorization": 0.0}
        cluster_times = []
        for cluster, subs in self.iter_clusters():
            clocks = self.new_thread_clocks(cluster)
            for i, sub in enumerate(subs):
                solver = self._cpu_solvers[sub.index]
                cost = cluster.cpu.numeric_factorization(
                    solver.factorization_flops(), solver.factor_nnz, self.library
                )
                clocks.advance(i, cost)
                breakdown["numeric_factorization"] += cost
            cluster_times.append(clocks.elapsed)
        return self._merge_cluster_times(cluster_times), breakdown

    def _apply_numerics(self, lam: np.ndarray) -> np.ndarray:
        """``B̃ K⁺ B̃ᵀ`` on all subdomains at once, on every executor.

        Two block-diagonal SpMVs around one stacked pair of triangular sweeps
        per sparsity pattern — the accurate CPU apply *is* this backend's
        apply.
        """
        return self.apply_accurate(lam)

    def _plan_apply(self) -> tuple[float, dict[str, float]]:
        """Two SpMVs + two TRSVs per subdomain on the round-robin thread clocks.

        The costs only depend on fixed sparsity patterns (``B̃ᵢ``, the factor).
        """
        breakdown: dict[str, float] = {"spmv": 0.0, "trsv": 0.0}
        cluster_times = []
        for cluster, subs in self.iter_clusters():
            clocks = self.new_thread_clocks(cluster)
            if subs:
                spmv_costs = np.array(
                    [2.0 * cluster.cpu.spmv(int(s.B.nnz)) for s in subs]
                )
                trsv_costs = np.array(
                    [
                        2.0 * cluster.cpu.sparse_trsv(self._cpu_solvers[s.index].factor_nnz)
                        for s in subs
                    ]
                )
                clocks.advance_many(spmv_costs + trsv_costs)
                breakdown["spmv"] += float(spmv_costs.sum())
                breakdown["trsv"] += float(trsv_costs.sum())
            cluster_times.append(clocks.elapsed)
        return self._merge_cluster_times(cluster_times), breakdown
