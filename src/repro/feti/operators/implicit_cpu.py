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
        """Vectorized scatter/gather around the per-subdomain solves.

        The triangular solves remain per-subdomain (their sparsity patterns
        differ), but the dual-vector traffic runs as single vectorized
        operations per cluster.  With a threads executor the per-subdomain
        solve loop is chunked into contiguous spans running as in-process
        futures — each span writes disjoint slices of the concatenated
        result, so the sharded loop is bit-identical to the serial one.
        """
        q = np.zeros_like(lam)
        for cluster, subs in self.iter_clusters():
            if not subs:
                continue
            batch = self.batch_engine.cluster(cluster.cluster_id)
            p_concat = batch.dual_map.gather(lam)
            q_concat = np.empty_like(p_concat)

            def solve_span(lo: int, hi: int, subs=subs, batch=batch,
                           p_concat=p_concat, q_concat=q_concat) -> None:
                for i in range(lo, hi):
                    sub = subs[i]
                    solver = self._cpu_solvers[sub.index]
                    local = batch.dual_map.slice_of(i)
                    z = solver.solve(sub.Bt @ p_concat[local])
                    q_concat[local] = sub.B @ z

            executor = self.executor
            if executor.backend == "threads" and executor.workers > 1:
                from repro.runtime.apply import min_shard_items
                from repro.runtime.shard import balanced_spans

                if len(subs) >= min_shard_items():
                    spans = balanced_spans(len(subs), executor.workers)
                    futures = [
                        executor.submit(solve_span, lo, hi) for lo, hi in spans
                    ]
                    for future in futures:
                        future.result()
                else:
                    solve_span(0, len(subs))
            else:
                # Serial reference; the process backend also solves in
                # the parent — the sparse factors live here, and
                # shipping two triangular solves per subdomain through
                # IPC would cost more than it saves.
                solve_span(0, len(subs))
            batch.dual_map.scatter_add(q, q_concat)
        return q

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
