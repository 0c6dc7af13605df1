"""Test oracle: the per-subdomain dual-operator apply loops.

``looped_apply(operator, λ)`` is what every backend ran before the apply
became *numerics + one planned timeline*: one subdomain at a time it gathers
``λᵢ``, runs that subdomain's kernels (a dense GEMV, or SpMV → TRSV → TRSV →
SpMV), scatters ``qᵢ`` back **and** replays the simulated thread clocks /
device streams — on every call.  It takes a preprocessed operator, reads the
state the preprocessing left behind (``local_F``, device ``F̃ᵢ``, device
factors, the simulated ``p``/``q`` vectors) and shares no code with the
engine's flat index maps, packed block stacks or cached plans, which makes it
the oracle for both the values and the plan (``tests/feti/test_apply_plan.py``).
"""

from __future__ import annotations

import numpy as np

from repro.feti.config import ScatterGatherDevice
from repro.feti.operators.base import DualOperatorBase
from repro.feti.operators.explicit_cpu import ExplicitCpuDualOperator
from repro.feti.operators.explicit_gpu import ExplicitGpuDualOperator
from repro.feti.operators.implicit_cpu import ImplicitCpuDualOperator
from repro.feti.operators.implicit_gpu import ImplicitGpuDualOperator
from repro.gpu import cublas, cusparse

from tests.oracles.kplus import (
    looped_apply_accurate,
    looped_dual_rhs,
    looped_primal_solution,
)

__all__ = ["looped_apply", "looped_apply_multi", "use_looped_apply"]

Applied = tuple[np.ndarray, float, dict[str, float]]


def looped_apply(operator: DualOperatorBase, lam: np.ndarray) -> Applied:
    """``(q, simulated seconds, breakdown)`` of one per-subdomain apply."""
    if isinstance(operator, ExplicitCpuDualOperator):
        return _explicit_cpu(operator, lam)
    if isinstance(operator, ImplicitCpuDualOperator):
        return _implicit_cpu(operator, lam)
    if isinstance(operator, ImplicitGpuDualOperator):
        return _implicit_gpu(operator, lam)
    if isinstance(operator, ExplicitGpuDualOperator):  # the hybrid included
        if operator.config.scatter_gather is ScatterGatherDevice.GPU:
            return _explicit_gpu_scatter(operator, lam)
        return _explicit_cpu_scatter(operator, lam)
    raise TypeError(f"no looped oracle for {type(operator).__name__}")


def looped_apply_multi(operator: DualOperatorBase, lam_block: np.ndarray) -> Applied:
    """Column-by-column :func:`looped_apply`; times and breakdowns add up."""
    sim = 0.0
    breakdown: dict[str, float] = {}
    columns = []
    for j in range(lam_block.shape[1]):
        q, col_sim, col_breakdown = looped_apply(operator, lam_block[:, j].copy())
        columns.append(q)
        sim += col_sim
        for key, value in col_breakdown.items():
            breakdown[key] = breakdown.get(key, 0.0) + value
    return np.column_stack(columns), sim, breakdown


def use_looped_apply(operator: DualOperatorBase) -> None:
    """Make ``operator`` run the oracle loops (a whole solve on the oracle)."""
    operator._apply_impl = lambda lam: looped_apply(operator, lam)
    operator.dual_rhs = lambda: looped_dual_rhs(operator)
    operator.primal_solution = lambda lam, alpha: looped_primal_solution(
        operator, lam, alpha
    )
    operator.apply_accurate = lambda lam: looped_apply_accurate(operator, lam)


# --------------------------------------------------------------------- #
# CPU backends                                                           #
# --------------------------------------------------------------------- #
def _explicit_cpu(op: ExplicitCpuDualOperator, lam: np.ndarray) -> Applied:
    q = np.zeros_like(lam)
    breakdown: dict[str, float] = {"gemv": 0.0}
    cluster_times = []
    for cluster, subs in op.iter_clusters():
        clocks = op.new_thread_clocks(cluster)
        for i, sub in enumerate(subs):
            q_local = op.local_F[sub.index] @ sub.local_dual(lam)
            sub.accumulate_dual(q, q_local)
            cost = cluster.cpu.gemv(sub.n_lambda, sub.n_lambda)
            clocks.advance(i, cost)
            breakdown["gemv"] += cost
        cluster_times.append(clocks.elapsed)
    return q, op._merge_cluster_times(cluster_times), breakdown


def _implicit_cpu(op: ImplicitCpuDualOperator, lam: np.ndarray) -> Applied:
    q = np.zeros_like(lam)
    breakdown: dict[str, float] = {"spmv": 0.0, "trsv": 0.0}
    cluster_times = []
    for cluster, subs in op.iter_clusters():
        clocks = op.new_thread_clocks(cluster)
        for i, sub in enumerate(subs):
            solver = op._cpu_solvers[sub.index]
            z = solver.solve(sub.Bt @ sub.local_dual(lam))
            sub.accumulate_dual(q, sub.B @ z)
            spmv_cost = 2.0 * cluster.cpu.spmv(int(sub.B.nnz))
            trsv_cost = 2.0 * cluster.cpu.sparse_trsv(solver.factor_nnz)
            clocks.advance(i, spmv_cost + trsv_cost)
            breakdown["spmv"] += spmv_cost
            breakdown["trsv"] += trsv_cost
        cluster_times.append(clocks.elapsed)
    return q, op._merge_cluster_times(cluster_times), breakdown


# --------------------------------------------------------------------- #
# GPU backends                                                           #
# --------------------------------------------------------------------- #
def _implicit_gpu(op: ImplicitGpuDualOperator, lam: np.ndarray) -> Applied:
    """H2D, SpMV, two TRSVs, SpMV and D2H per subdomain on its stream."""
    q = np.zeros_like(lam)
    breakdown = {"transfer": 0.0, "spmv": 0.0, "trsv": 0.0}
    cluster_times = []
    for cluster, subs in op.iter_clusters():
        device = cluster.device
        device.reset_timeline()
        clocks = op.new_thread_clocks(cluster)
        cost = device.cost_model
        overhead = cost.submission_overhead_cpu
        for i, sub in enumerate(subs):
            stream = cluster.stream_for(i)
            state = op._state[sub.index]

            state.p_vec.array[...] = sub.local_dual(lam)
            stream_op = stream.submit(
                "h2d:p", cost.transfer(8 * sub.n_lambda), clocks.now(i)
            )
            breakdown["transfer"] += stream_op.duration
            clocks.advance(i, overhead)

            stream_op = cusparse.spmv(
                device, stream, state.device_B, state.p_vec, state.work_vec,
                clocks.now(i), transpose=True,
            )
            breakdown["spmv"] += stream_op.duration
            clocks.advance(i, overhead)

            rhs = state.work_vec.array
            lower = cusparse.prepared_lower_factor(state.device_factor)
            trsv = cost.sparse_trsm(
                state.device_factor.nnz, sub.ndofs, 1, device.cuda_version
            )
            rhs[...] = lower.solve_lower(rhs)
            stream_op = stream.submit("cusparse.trsv_fwd", trsv, clocks.now(i))
            breakdown["trsv"] += stream_op.duration
            clocks.advance(i, overhead)

            rhs[...] = lower.solve_upper(rhs)
            stream_op = stream.submit("cusparse.trsv_bwd", trsv, clocks.now(i))
            breakdown["trsv"] += stream_op.duration
            clocks.advance(i, overhead)

            stream_op = cusparse.spmv(
                device, stream, state.device_B, state.work_vec, state.q_vec,
                clocks.now(i), transpose=False,
            )
            breakdown["spmv"] += stream_op.duration
            clocks.advance(i, overhead)

            q_local, stream_op = device.download_vector(
                state.q_vec, stream, clocks.now(i), label="q"
            )
            breakdown["transfer"] += stream_op.duration
            clocks.advance(i, overhead)
            sub.accumulate_dual(q, q_local)
        cluster_times.append(device.synchronize(clocks.max_time))
    return q, op._merge_cluster_times(cluster_times), breakdown


def _mv(op: ExplicitGpuDualOperator, device, stream, state, submit_time: float):
    """The GEMV or SYMV kernel of one subdomain."""
    kernel = cublas.symv if op.config.apply_symmetric else cublas.gemv
    return kernel(device, stream, state.device_F, state.p_vec, state.q_vec, submit_time)


def _explicit_cpu_scatter(op: ExplicitGpuDualOperator, lam: np.ndarray) -> Applied:
    """H2D of ``pᵢ``, GEMV/SYMV, D2H of ``qᵢ`` per subdomain on its stream."""
    q = np.zeros_like(lam)
    breakdown = {"transfer": 0.0, "mv": 0.0}
    cluster_times = []
    for cluster, subs in op.iter_clusters():
        if not subs:
            cluster_times.append(0.0)
            continue
        device = cluster.device
        device.reset_timeline()
        clocks = op.new_thread_clocks(cluster)
        overhead = device.cost_model.submission_overhead_cpu
        for i, sub in enumerate(subs):
            stream = cluster.stream_for(i)
            state = op._state[sub.index]
            state.p_vec.array[...] = sub.local_dual(lam)
            stream_op = stream.submit(
                "h2d:p", device.cost_model.transfer(8 * sub.n_lambda), clocks.now(i)
            )
            breakdown["transfer"] += stream_op.duration
            clocks.advance(i, overhead)
            stream_op = _mv(op, device, stream, state, clocks.now(i))
            breakdown["mv"] += stream_op.duration
            clocks.advance(i, overhead)
            q_local, stream_op = device.download_vector(
                state.q_vec, stream, clocks.now(i), label="q"
            )
            breakdown["transfer"] += stream_op.duration
            clocks.advance(i, overhead)
            sub.accumulate_dual(q, q_local)
        cluster_times.append(device.synchronize(clocks.max_time))
    return q, op._merge_cluster_times(cluster_times), breakdown


def _explicit_gpu_scatter(op: ExplicitGpuDualOperator, lam: np.ndarray) -> Applied:
    """One cluster-wide H2D + scatter kernel, the MVs, one gather + D2H."""
    q = np.zeros_like(lam)
    breakdown = {"transfer": 0.0, "scatter_gather": 0.0, "mv": 0.0}
    cluster_times = []
    for cluster, subs in op.iter_clusters():
        if not subs:
            cluster_times.append(0.0)
            continue
        device = cluster.device
        device.reset_timeline()
        clocks = op.new_thread_clocks(cluster)
        cost = device.cost_model
        cstate = op._cluster_state[cluster.cluster_id]
        main_stream = cluster.stream_for(0)

        cstate.dual_in.array[...] = lam[cstate.lambda_ids]
        cstate.dual_out.array[...] = 0.0
        stream_op = main_stream.submit(
            "h2d:cluster-dual", cost.transfer(8 * cstate.lambda_ids.size), clocks.now(0)
        )
        breakdown["transfer"] += stream_op.duration
        total_local = sum(s.n_lambda for s in subs)
        scatter_op = main_stream.submit(
            "gpu.scatter", cost.scatter_gather(total_local), stream_op.end_time
        )
        breakdown["scatter_gather"] += scatter_op.duration
        clocks.advance(0, 2 * cost.submission_overhead_cpu)

        for i, sub in enumerate(subs):
            state = op._state[sub.index]
            state.p_vec.array[...] = cstate.dual_in.array[state.cluster_positions]
            stream = cluster.stream_for(i)
            stream.wait_for(scatter_op.end_time)
            stream_op = _mv(op, device, stream, state, clocks.now(i))
            clocks.advance(i, cost.submission_overhead_cpu)
            breakdown["mv"] += stream_op.duration
            np.add.at(cstate.dual_out.array, state.cluster_positions, state.q_vec.array)

        main_stream.wait_for(max(s.tail for s in cluster.streams))
        gather_op = main_stream.submit(
            "gpu.gather", cost.scatter_gather(total_local), clocks.max_time
        )
        breakdown["scatter_gather"] += gather_op.duration
        stream_op = main_stream.submit(
            "d2h:cluster-dual",
            cost.transfer(8 * cstate.lambda_ids.size),
            gather_op.end_time,
        )
        breakdown["transfer"] += stream_op.duration
        np.add.at(q, cstate.lambda_ids, cstate.dual_out.array)
        cluster_times.append(device.synchronize(clocks.max_time))
    return q, op._merge_cluster_times(cluster_times), breakdown
