"""Test oracle: the per-subdomain dual-operator apply loops.

``looped_apply(operator, λ, replay)`` is what every backend ran before the
apply became *numerics + one priced timeline*: one subdomain at a time it
gathers ``λᵢ``, runs that subdomain's kernels (a dense GEMV, or SpMV → TRSV
→ TRSV → SpMV), scatters ``qᵢ`` back **and** replays the simulated thread
clocks / device streams — on every call, on the machine of ``replay`` (a
:func:`~tests.oracles.clusters.priced_replay` of the operator).  It takes a
preprocessed operator, reads the state the preprocessing left behind
(``local_F`` and the subdomains' rows of their pattern groups' factor
bands, solved by ``tests/oracles/kplus.py`` — the simulated device holds
byte sizes only, so the GPU kernels' numbers are NumPy's and SciPy's here)
and shares no code with the engine's flat index maps, packed block stacks
or price list, which makes it the oracle for both the values and the
price list (``tests/feti/test_apply_plan.py``).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.timing import ThreadClocks
from repro.feti.config import ScatterGatherDevice
from repro.feti.operators.base import DualOperator
from repro.feti.operators.replay import (
    CpuExplicitReplay,
    CpuImplicitReplay,
    GpuExplicitReplay,
    GpuImplicitReplay,
)

from tests.oracles.clusters import iter_clusters
from tests.oracles.kplus import (
    kplus_solve,
    looped_apply_accurate,
    looped_dual_rhs,
    looped_primal_solution,
    member_factor,
)
from tests.oracles.problem import accumulate_dual, local_dual

__all__ = ["looped_apply", "looped_apply_multi", "use_looped_apply"]

Applied = tuple[np.ndarray, float, dict[str, float]]


def looped_apply(operator: DualOperator, lam: np.ndarray, replay) -> Applied:
    """``(q, simulated seconds, breakdown)`` of one per-subdomain apply, its
    timeline replayed on ``replay``'s machine."""
    if isinstance(replay, CpuExplicitReplay):
        return _explicit_cpu(operator, lam, replay)
    if isinstance(replay, CpuImplicitReplay):
        return _implicit_cpu(operator, lam, replay)
    if isinstance(replay, GpuImplicitReplay):
        return _implicit_gpu(operator, lam, replay)
    if isinstance(replay, GpuExplicitReplay):  # the hybrid included
        if operator.config.scatter_gather is ScatterGatherDevice.GPU:
            return _explicit_gpu_scatter(operator, lam, replay)
        return _explicit_cpu_scatter(operator, lam, replay)
    raise TypeError(f"no looped oracle for {type(replay).__name__}")


def looped_apply_multi(operator: DualOperator, lam_block: np.ndarray, replay) -> Applied:
    """Column-by-column :func:`looped_apply`; times and breakdowns add up."""
    sim = 0.0
    breakdown: dict[str, float] = {}
    columns = []
    for j in range(lam_block.shape[1]):
        q, col_sim, col_breakdown = looped_apply(operator, lam_block[:, j].copy(), replay)
        columns.append(q)
        sim += col_sim
        for key, value in col_breakdown.items():
            breakdown[key] = breakdown.get(key, 0.0) + value
    return np.column_stack(columns), sim, breakdown


def use_looped_apply(operator: DualOperator, replay) -> None:
    """Make ``operator`` run the oracle loops (a whole solve on the oracle)."""
    operator.apply = lambda lam: looped_apply(operator, lam, replay)[0]
    operator.dual_rhs = lambda loads=None: looped_dual_rhs(operator, loads)
    operator.primal_solution = lambda lam, alpha, loads=None: looped_primal_solution(
        operator, lam, alpha, loads
    )
    operator.apply_accurate = lambda lam: looped_apply_accurate(operator, lam)


# --------------------------------------------------------------------- #
# CPU backends                                                           #
# --------------------------------------------------------------------- #
def _explicit_cpu(op: DualOperator, lam: np.ndarray, replay) -> Applied:
    q = np.zeros_like(lam)
    breakdown: dict[str, float] = {"gemv": 0.0}
    cluster_times = []
    for cluster, subs in iter_clusters(op, replay.machine):
        clocks = ThreadClocks(cluster.n_threads)
        for i, sub in enumerate(subs):
            q_local = op.local_F[sub.index] @ local_dual(sub, lam)
            accumulate_dual(sub, q, q_local)
            cost = cluster.cpu.gemv(sub.n_lambda, sub.n_lambda)
            clocks.advance(i, cost)
            breakdown["gemv"] += cost
        cluster_times.append(clocks.elapsed)
    return q, max(cluster_times), breakdown


def _implicit_cpu(op: DualOperator, lam: np.ndarray, replay) -> Applied:
    q = np.zeros_like(lam)
    breakdown: dict[str, float] = {"spmv": 0.0, "trsv": 0.0}
    cluster_times = []
    for cluster, subs in iter_clusters(op, replay.machine):
        clocks = ThreadClocks(cluster.n_threads)
        for i, sub in enumerate(subs):
            z = kplus_solve(op, sub.index, sub.Bt @ local_dual(sub, lam))
            accumulate_dual(sub, q, sub.B @ z)
            spmv_cost = 2.0 * cluster.cpu.spmv(int(sub.B.nnz))
            trsv_cost = 2.0 * cluster.cpu.sparse_trsv(member_factor(op, sub.index).nnz)
            clocks.advance(i, spmv_cost + trsv_cost)
            breakdown["spmv"] += spmv_cost
            breakdown["trsv"] += trsv_cost
        cluster_times.append(clocks.elapsed)
    return q, max(cluster_times), breakdown


# --------------------------------------------------------------------- #
# GPU backends                                                           #
# --------------------------------------------------------------------- #
def _implicit_gpu(op: DualOperator, lam: np.ndarray, replay) -> Applied:
    """H2D, SpMV, two TRSVs, SpMV and D2H per subdomain on its stream."""
    q = np.zeros_like(lam)
    breakdown = {"transfer": 0.0, "spmv": 0.0, "trsv": 0.0}
    cluster_times = []
    for cluster, subs in iter_clusters(op, replay.machine):
        device = cluster.device
        device.reset_timeline()
        clocks = ThreadClocks(cluster.n_threads)
        cost = device.cost_model
        overhead = cost.submission_overhead_cpu
        for i, sub in enumerate(subs):
            stream = cluster.stream_for(i)
            state = replay.device_state[sub.index]
            spmv = cost.spmv(state.device_B.nnz)
            trsv = cost.sparse_trsm(
                state.device_factor.nnz, sub.ndofs, 1, device.cuda_version
            )
            # SpMV → TRSV → TRSV → SpMV: one solve with the subdomain's own
            # CPU factor between the two products with B̃ᵢ.
            p = local_dual(sub, lam)
            q_local = sub.B @ kplus_solve(op, sub.index, sub.Bt @ p)
            for key, label, duration in (
                ("transfer", "h2d:p", cost.transfer(8 * sub.n_lambda)),
                ("spmv", "cusparse.spmv", spmv),
                ("trsv", "cusparse.trsv_fwd", trsv),
                ("trsv", "cusparse.trsv_bwd", trsv),
                ("spmv", "cusparse.spmv", spmv),
                ("transfer", "d2h:q", cost.transfer(8 * sub.n_lambda)),
            ):
                stream_op = stream.submit(label, duration, clocks.now(i))
                breakdown[key] += stream_op.duration
                clocks.advance(i, overhead)
            accumulate_dual(sub, q, q_local)
        cluster_times.append(device.synchronize(clocks.max_time))
    return q, max(cluster_times), breakdown


def _mv(op: DualOperator, cost, stream, sub, submit_time: float):
    """The GEMV or SYMV kernel of one subdomain (its numbers: ``local_F[i] @ pᵢ``)."""
    if op.config.apply_symmetric:
        return stream.submit("cublas.symv", cost.symv(sub.n_lambda), submit_time)
    return stream.submit(
        "cublas.gemv", cost.gemv(sub.n_lambda, sub.n_lambda), submit_time
    )


def _explicit_cpu_scatter(op: DualOperator, lam: np.ndarray, replay) -> Applied:
    """H2D of ``pᵢ``, GEMV/SYMV, D2H of ``qᵢ`` per subdomain on its stream."""
    q = np.zeros_like(lam)
    breakdown = {"transfer": 0.0, "mv": 0.0}
    cluster_times = []
    for cluster, subs in iter_clusters(op, replay.machine):
        if not subs:
            cluster_times.append(0.0)
            continue
        device = cluster.device
        device.reset_timeline()
        clocks = ThreadClocks(cluster.n_threads)
        overhead = device.cost_model.submission_overhead_cpu
        for i, sub in enumerate(subs):
            stream = cluster.stream_for(i)
            q_local = op.local_F[sub.index] @ local_dual(sub, lam)
            transfer = device.cost_model.transfer(8 * sub.n_lambda)
            stream_op = stream.submit("h2d:p", transfer, clocks.now(i))
            breakdown["transfer"] += stream_op.duration
            clocks.advance(i, overhead)
            stream_op = _mv(op, device.cost_model, stream, sub, clocks.now(i))
            breakdown["mv"] += stream_op.duration
            clocks.advance(i, overhead)
            stream_op = stream.submit("d2h:q", transfer, clocks.now(i))
            breakdown["transfer"] += stream_op.duration
            clocks.advance(i, overhead)
            accumulate_dual(sub, q, q_local)
        cluster_times.append(device.synchronize(clocks.max_time))
    return q, max(cluster_times), breakdown


def _explicit_gpu_scatter(op: DualOperator, lam: np.ndarray, replay) -> Applied:
    """One cluster-wide H2D + scatter kernel, the MVs, one gather + D2H."""
    q = np.zeros_like(lam)
    breakdown = {"transfer": 0.0, "scatter_gather": 0.0, "mv": 0.0}
    cluster_times = []
    for cluster, subs in iter_clusters(op, replay.machine):
        if not subs:
            cluster_times.append(0.0)
            continue
        device = cluster.device
        device.reset_timeline()
        clocks = ThreadClocks(cluster.n_threads)
        cost = device.cost_model
        main_stream = cluster.stream_for(0)

        # The cluster dual vectors: the distinct multipliers of the cluster.
        lambda_ids = np.unique(np.concatenate([s.lambda_ids for s in subs]))
        dual_in = lam[lambda_ids]
        dual_out = np.zeros(lambda_ids.size)
        stream_op = main_stream.submit(
            "h2d:cluster-dual", cost.transfer(8 * lambda_ids.size), clocks.now(0)
        )
        breakdown["transfer"] += stream_op.duration
        total_local = sum(s.n_lambda for s in subs)
        scatter_op = main_stream.submit(
            "gpu.scatter", cost.scatter_gather(total_local), stream_op.end_time
        )
        breakdown["scatter_gather"] += scatter_op.duration
        clocks.advance(0, 2 * cost.submission_overhead_cpu)

        for i, sub in enumerate(subs):
            positions = np.searchsorted(lambda_ids, sub.lambda_ids)
            q_local = op.local_F[sub.index] @ dual_in[positions]
            stream = cluster.stream_for(i)
            stream.wait_for(scatter_op.end_time)
            stream_op = _mv(op, cost, stream, sub, clocks.now(i))
            clocks.advance(i, cost.submission_overhead_cpu)
            breakdown["mv"] += stream_op.duration
            np.add.at(dual_out, positions, q_local)

        main_stream.wait_for(max(s.tail for s in cluster.streams))
        gather_op = main_stream.submit(
            "gpu.gather", cost.scatter_gather(total_local), clocks.max_time
        )
        breakdown["scatter_gather"] += gather_op.duration
        stream_op = main_stream.submit(
            "d2h:cluster-dual",
            cost.transfer(8 * lambda_ids.size),
            gather_op.end_time,
        )
        breakdown["transfer"] += stream_op.duration
        np.add.at(q, lambda_ids, dual_out)
        cluster_times.append(device.synchronize(clocks.max_time))
    return q, max(cluster_times), breakdown
