"""Test oracle: the cost replays one subdomain and one kernel at a time.

What :mod:`repro.feti.operators.replay` ran before it priced each shape
group once: per subdomain, its own cost-model calls, one
:class:`~repro.gpu.stream.StreamOperation` per kernel through
:meth:`Stream.submit <repro.gpu.stream.Stream.submit>`, one pool or arena
:class:`~repro.gpu.memory.Allocation` per buffer (through
:meth:`Device.upload_sparse <repro.gpu.device.Device.upload_sparse>` and
:func:`~repro.gpu.cusparse.trsm_analysis` where the replay uploads or
analyses) and one ``f``-string label each, advancing
:class:`~repro.analysis.timing.ThreadClocks` item by item.  Its shape table
holds one :class:`OracleShape` per subdomain.  Every simulated second,
breakdown, pool and arena counter, device-state byte size and stream log of
the production replays must be bitwise this file's
(``tests/feti/test_replay_at_size.py``).

:func:`oracle_replay_for` builds the oracle of a Table-III approach on a
fresh machine, like :func:`repro.feti.operators.replay_for`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.analysis.timing import ThreadClocks
from repro.cluster.topology import ClusterResources, Machine
from repro.feti.config import AssemblyConfig, FactorStorage, Path, ScatterGatherDevice
from repro.gpu import cusparse
from repro.gpu.arrays import DeviceCsrMatrix, MatrixOrder
from repro.gpu.cusparse import SparseTrsmPlan
from repro.gpu.memory import Allocation
from repro.sparse.costmodel import CpuLibrary
from repro.sparse.schur import SchurScatter
from repro.sparse.symbolic import SymbolicFactor

__all__ = ["OracleShape", "OracleShapeTable", "oracle_replay_for"]

Timeline = tuple[float, dict[str, float]]


@dataclass(frozen=True)
class OracleShape:
    """What the cost model reads of one subdomain."""

    index: int
    cluster: int
    ndofs: int
    n_lambda: int
    #: Entries of ``K_reg`` and of its factor ``L``.
    K_nnz: int
    L_nnz: int
    #: Flops of one numeric factorization.
    flops: float
    B_nnz: int
    #: Which symbolic analysis the subdomain shares (first-seen order).
    pattern: int
    #: Fraction of the Schur assembly's TRSM work left after exploiting the
    #: sparsity of ``B̃ᵢ`` (read by the CPU assembly; 1.0 where unread).
    rhs_fill: float = 1.0


class OracleShapeTable:
    """The shapes of every subdomain, grouped by cluster.

    ``cluster_n_lambda[c]`` is the number of distinct multipliers of cluster
    ``c``: the length of its cluster-wide dual vectors.
    """

    def __init__(
        self,
        subdomains: list[OracleShape],
        cluster_n_lambda: dict[int, int],
        library: CpuLibrary,
    ) -> None:
        self.subdomains = tuple(subdomains)
        self.cluster_n_lambda = cluster_n_lambda
        #: The CPU library whose analysis (and factorization) the table prices.
        self.library = library
        self._by_cluster: dict[int, list[OracleShape]] = {}
        for shape in self.subdomains:
            self._by_cluster.setdefault(shape.cluster, []).append(shape)

    def of_cluster(self, cluster_id: int) -> list[OracleShape]:
        """The shapes of one cluster's subdomains, in subdomain order."""
        return self._by_cluster.get(cluster_id, [])

    @classmethod
    def from_analyses(
        cls,
        problem,
        analyses: Mapping[int, SymbolicFactor],
        library: CpuLibrary,
        rhs_fill: bool = False,
        scatters: Mapping[int, SchurScatter] | None = None,
    ) -> "OracleShapeTable":
        """The table of ``problem`` under its subdomains' symbolic analyses.

        ``nnz(L)`` and the factorization flops are read once per analysis,
        ``nnz(B̃ᵢ)`` from the gluing entries and ``rhs_fill`` (where the
        replay reads it) from the Schur scatters
        (:meth:`~repro.sparse.schur.SchurScatter.rhs_fill`), which
        ``scatters`` must then hold: once per distinct ``starts`` and row
        order.
        """
        patterns: dict[int, tuple[int, int, float]] = {}
        fills: dict[tuple, float] = {}
        b_nnz = problem.gluing.entries.counts.tolist()
        shapes = []
        for sub in problem.subdomains:
            symbolic = analyses[sub.index]
            pattern = patterns.get(id(symbolic))
            if pattern is None:
                pattern = patterns[id(symbolic)] = (
                    len(patterns), symbolic.nnz, symbolic.factorization_flops()
                )
            fill = 1.0
            if rhs_fill:
                # Equal starts in equal row order: the same mean, bit for bit.
                scatter = scatters[sub.index]
                order = None if scatter.rank is None else scatter.rank.tobytes()
                fill = fills.get((symbolic.n, scatter.key, order))
                if fill is None:
                    fill = fills[symbolic.n, scatter.key, order] = scatter.rhs_fill(symbolic.n)
            shapes.append(
                OracleShape(
                    index=sub.index,
                    cluster=sub.cluster,
                    ndofs=sub.ndofs,
                    n_lambda=sub.n_lambda,
                    K_nnz=int(sub.csr_arrays("K_reg")[2][-1]),
                    L_nnz=pattern[1],
                    flops=pattern[2],
                    B_nnz=int(b_nnz[sub.index]),
                    pattern=pattern[0],
                    rhs_fill=fill,
                )
            )
        lambda_ids: dict[int, list[np.ndarray]] = {}
        for sub in problem.subdomains:
            lambda_ids.setdefault(sub.cluster, []).append(sub.lambda_ids)
        cluster_n_lambda = {
            c: int(np.unique(np.concatenate(ids)).size) for c, ids in lambda_ids.items()
        }
        return cls(shapes, cluster_n_lambda, library)


def _slowest(cluster_times: list[float]) -> float:
    return max(cluster_times) if cluster_times else 0.0


def _matrix_order(order) -> MatrixOrder:
    """The device memory order of a Table-I factor or RHS order."""
    return MatrixOrder.ROW_MAJOR if order.value == "row-major" else MatrixOrder.COL_MAJOR


class CostReplay:
    """The simulated timeline of one approach family, one subdomain at a time.

    ``prepare()`` charges the symbolic analysis of every subdomain, then the
    family's per-subdomain and per-cluster setup (:meth:`_prepare_subdomain`,
    :meth:`_close_prepare`); ``preprocess()`` and ``apply(columns)`` are the
    family's own.
    """

    #: Whether the replay reads :attr:`OracleShape.rhs_fill`.
    reads_rhs_fill = False
    prepare_keys: tuple[str, ...] = ("symbolic",)

    def __init__(
        self,
        shapes: OracleShapeTable,
        machine: Machine,
        config: AssemblyConfig | None = None,
        storage_dtype=np.float64,
    ) -> None:
        self.shapes = shapes
        self.machine = machine
        self.config = config or AssemblyConfig()
        #: Storage dtype of the assembled ``F̃ᵢ`` (the precision policy's).
        self.storage_dtype = np.dtype(storage_dtype)

    def clusters(self):
        """Yield ``(resources, shapes)`` for every cluster."""
        for cluster in self.machine.clusters:
            yield cluster, self.shapes.of_cluster(cluster.cluster_id)

    def prepare(self) -> Timeline:
        breakdown = dict.fromkeys(self.prepare_keys, 0.0)
        cluster_times = []
        for cluster, subs in self.clusters():
            self._open(cluster)
            clocks = ThreadClocks(cluster.n_threads)
            for i, sub in enumerate(subs):
                cost = cluster.cpu.symbolic_factorization(sub.K_nnz, sub.L_nnz)
                clocks.advance(i, cost)
                breakdown["symbolic"] += cost
                self._prepare_subdomain(cluster, clocks, i, sub, breakdown)
            cluster_times.append(self._close_prepare(cluster, clocks))
        return _slowest(cluster_times), breakdown

    def _open(self, cluster: ClusterResources) -> None:
        """Start a cluster's phase (the GPU families reset its streams)."""

    def _prepare_subdomain(self, cluster, clocks, i: int, sub: OracleShape, breakdown) -> None:
        """Per-subdomain setup after its symbolic analysis."""

    def _close_prepare(self, cluster, clocks: ThreadClocks) -> float:
        """Finish a cluster's preparation; return its elapsed time."""
        return clocks.elapsed

    def preprocess(self) -> Timeline:
        raise NotImplementedError

    def apply(self, columns: int = 1) -> Timeline:
        """One apply to ``columns`` stacked right-hand sides."""
        raise NotImplementedError


# --------------------------------------------------------------------- #
# CPU families                                                           #
# --------------------------------------------------------------------- #
class _CpuReplay(CostReplay):
    """Subdomains round-robin over the cluster threads; no device."""

    def _cpu_loop(self, key: str, cost) -> Timeline:
        """One cost per subdomain, advanced one at a time."""
        breakdown = {key: 0.0}
        cluster_times = []
        for cluster, subs in self.clusters():
            clocks = ThreadClocks(cluster.n_threads)
            for i, sub in enumerate(subs):
                seconds = cost(cluster, sub)
                clocks.advance(i, seconds)
                breakdown[key] += seconds
            cluster_times.append(clocks.elapsed)
        return _slowest(cluster_times), breakdown

    def _apply_costs(self, cluster, subs) -> dict[str, np.ndarray]:
        """Per-subdomain costs of one column, by breakdown key."""
        raise NotImplementedError

    def apply(self, columns: int = 1) -> Timeline:
        """Every subdomain's kernels ``columns`` times on its thread's clock.

        (The cost model has no GEMM-efficiency term for a stacked apply.)
        """
        breakdown: dict[str, float] = {}
        cluster_times = []
        for cluster, subs in self.clusters():
            clocks = ThreadClocks(cluster.n_threads)
            costs = {key: columns * c for key, c in self._apply_costs(cluster, subs).items()}
            clocks.advance_many(sum(costs.values()))
            for key, c in costs.items():
                breakdown[key] = breakdown.get(key, 0.0) + float(c.sum())
            cluster_times.append(clocks.elapsed)
        return _slowest(cluster_times), breakdown


class CpuExplicitReplay(_CpuReplay):
    """`expl mkl` / `expl cholmod`: Schur assembly on the CPU, one GEMV each."""

    reads_rhs_fill = True

    def preprocess(self) -> Timeline:
        library = self.shapes.library
        return self._cpu_loop(
            "schur_complement",
            lambda cluster, sub: cluster.cpu.schur_complement(
                sub.L_nnz, sub.flops, sub.n_lambda, sub.rhs_fill, library, ndofs=sub.ndofs
            ),
        )

    def _apply_costs(self, cluster, subs):
        return {"gemv": np.array([cluster.cpu.gemv(s.n_lambda, s.n_lambda) for s in subs])}


class CpuImplicitReplay(_CpuReplay):
    """`impl mkl` / `impl cholmod`: factorization, then SpMV-TRSV-TRSV-SpMV."""

    def preprocess(self) -> Timeline:
        library = self.shapes.library
        return self._cpu_loop(
            "numeric_factorization",
            lambda cluster, sub: cluster.cpu.numeric_factorization(
                sub.flops, sub.L_nnz, library
            ),
        )

    def _apply_costs(self, cluster, subs):
        return {
            "spmv": np.array([2.0 * cluster.cpu.spmv(s.B_nnz) for s in subs]),
            "trsv": np.array([2.0 * cluster.cpu.sparse_trsv(s.L_nnz) for s in subs]),
        }


# --------------------------------------------------------------------- #
# GPU families                                                           #
# --------------------------------------------------------------------- #
@dataclass
class DeviceState:
    """Per-subdomain persistent device structures (byte sizes, no values)."""

    device_B: DeviceCsrMatrix | None = None
    device_factor: DeviceCsrMatrix | None = None
    forward_plan: SparseTrsmPlan | None = None
    backward_plan: SparseTrsmPlan | None = None
    F: Allocation | None = None
    p: Allocation | None = None
    q: Allocation | None = None
    work: Allocation | None = None


class _GpuReplay(CostReplay):
    """Kernels on per-thread streams; a cluster's phase ends when its device drains."""

    prepare_keys = ("symbolic", "persistent_upload", "analysis")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Persistent device structures by subdomain index (set by prepare()).
        self.device_state = {s.index: DeviceState() for s in self.shapes.subdomains}

    def _open(self, cluster: ClusterResources) -> None:
        cluster.device.reset_timeline()

    def _close_prepare(self, cluster, clocks: ThreadClocks) -> float:
        device = cluster.device
        if device.temporary is None:
            device.allocate_temporary_arena()
        return device.synchronize(clocks.max_time)

    def _upload_patterns(
        self, cluster, clocks, i: int, sub: OracleShape, breakdown, factor_order
    ) -> DeviceState:
        """The persistent device copies of ``B̃ᵢ`` and of the factor's pattern."""
        device = cluster.device
        stream = cluster.stream_for(i)
        state = self.device_state[sub.index]
        overhead = device.cost_model.submission_overhead_cpu
        state.device_B, op = device.upload_sparse(
            (sub.n_lambda, sub.ndofs), sub.B_nnz, stream, clocks.now(i), label=f"B[{sub.index}]"
        )
        clocks.advance(i, overhead)
        breakdown["persistent_upload"] += op.duration
        state.device_factor, op = device.upload_sparse(
            (sub.ndofs, sub.ndofs), sub.L_nnz, stream, clocks.now(i),
            order=factor_order, label=f"L[{sub.index}]",
        )
        clocks.advance(i, overhead)
        breakdown["persistent_upload"] += op.duration
        return state

    def _analyse(self, cluster, clocks, i: int, breakdown, factor, nrhs: int, **kwargs):
        """One sparse-TRSM analysis (its persistent workspace included)."""
        device = cluster.device
        plan, op = cusparse.trsm_analysis(
            device, cluster.stream_for(i), factor, nrhs=nrhs, submit_time=clocks.now(i), **kwargs
        )
        clocks.advance(i, device.cost_model.submission_overhead_cpu)
        breakdown["analysis"] += op.duration
        return plan

    def _stream_kernels(self, breakdown: dict[str, float], kernels) -> Timeline:
        """Every subdomain's ``kernels(device, shape)`` — ``(key, label,
        duration)`` triples — submitted in order to its stream."""
        cluster_times = []
        for cluster, subs in self.clusters():
            if not subs:
                cluster_times.append(0.0)
                continue
            device = cluster.device
            device.reset_timeline()
            clocks = ThreadClocks(cluster.n_threads)
            overhead = device.cost_model.submission_overhead_cpu
            for i, sub in enumerate(subs):
                stream = cluster.stream_for(i)
                for key, label, duration in kernels(device, sub):
                    op = stream.submit(label, duration, clocks.now(i))
                    breakdown[key] += op.duration
                    clocks.advance(i, overhead)
            cluster_times.append(device.synchronize(clocks.max_time))
        return _slowest(cluster_times), breakdown

    def apply(self, columns: int = 1) -> Timeline:
        """``columns`` stacked columns cost ``columns`` one-column replays."""
        seconds, breakdown = self._apply_one()
        if columns == 1:
            return seconds, breakdown
        total = 0.0
        summed: dict[str, float] = {}
        for _ in range(columns):
            total += seconds
            for key, value in breakdown.items():
                summed[key] = summed.get(key, 0.0) + value
        return total, summed

    def _apply_one(self) -> Timeline:
        raise NotImplementedError


class GpuImplicitReplay(_GpuReplay):
    """`impl legacy` / `impl modern`: CPU factors copied to the device every step.

    Every apply runs H2D, SpMV, two sparse TRSVs, SpMV and D2H per subdomain
    on its stream.
    """

    def _prepare_subdomain(self, cluster, clocks, i, sub, breakdown) -> None:
        state = self._upload_patterns(
            cluster, clocks, i, sub, breakdown, MatrixOrder.ROW_MAJOR
        )
        state.forward_plan = self._analyse(cluster, clocks, i, breakdown, state.device_factor, 1)
        memory = cluster.device.memory
        state.p = memory.allocate(8 * sub.n_lambda, "p")
        state.q = memory.allocate(8 * sub.n_lambda, "q")
        state.work = memory.allocate(8 * sub.ndofs, "work")

    def preprocess(self) -> Timeline:
        breakdown = {"numeric_factorization": 0.0, "factor_extraction": 0.0, "upload": 0.0}
        cluster_times = []
        for cluster, subs in self.clusters():
            device = cluster.device
            device.reset_timeline()
            clocks = ThreadClocks(cluster.n_threads)
            for i, sub in enumerate(subs):
                fact_cost = cluster.cpu.numeric_factorization(
                    sub.flops, sub.L_nnz, self.shapes.library
                )
                extract_cost = cluster.cpu.factor_extraction(sub.L_nnz)
                clocks.advance(i, fact_cost + extract_cost)
                breakdown["numeric_factorization"] += fact_cost
                breakdown["factor_extraction"] += extract_cost

                op = device.update_sparse_values(
                    self.device_state[sub.index].device_factor,
                    cluster.stream_for(i),
                    clocks.now(i),
                )
                clocks.advance(i, device.cost_model.submission_overhead_cpu)
                breakdown["upload"] += op.duration
            cluster_times.append(device.synchronize(clocks.max_time))
        return _slowest(cluster_times), breakdown

    def _apply_one(self) -> Timeline:
        def kernels(device, sub):
            cost = device.cost_model
            transfer = cost.transfer(8 * sub.n_lambda)
            spmv = cost.spmv(sub.B_nnz)
            trsv = cost.sparse_trsm(sub.L_nnz, sub.ndofs, 1, device.cuda_version)
            return (
                ("transfer", "h2d:p", transfer),
                ("spmv", "cusparse.spmv", spmv),
                ("trsv", "cusparse.trsv_fwd", trsv),
                ("trsv", "cusparse.trsv_bwd", trsv),
                ("spmv", "cusparse.spmv", spmv),
                ("transfer", "d2h:q", transfer),
            )

        return self._stream_kernels({"transfer": 0.0, "spmv": 0.0, "trsv": 0.0}, kernels)


class GpuExplicitReplay(_GpuReplay):
    """`expl legacy` / `expl modern`: the paper's assembly of ``F̃ᵢ`` on the GPU.

    The pipeline of Section IV-B/C, configured by the Table-I
    :class:`~repro.feti.config.AssemblyConfig`: upload the factor values,
    convert to dense where the config asks, then ``W = L⁻¹ B̃ᵢᵀ`` and
    ``F̃ᵢ = WᵀW`` (SYRK) or ``Z = L⁻ᵀ W``, ``F̃ᵢ = B̃ᵢ Z`` (TRSM).  Dense
    right-hand sides, dense factor copies and sparse-TRSM workspaces come
    from the blocking temporary arena for each kernel's lifetime (Section
    IV-A).  The apply runs GEMV/SYMV on the persistent ``F̃ᵢ``, with the
    dual-vector scatter/gather on the CPU or the GPU.
    """

    def _prepare_subdomain(self, cluster, clocks, i, sub, breakdown) -> None:
        cfg = self.config
        state = self._upload_patterns(
            cluster, clocks, i, sub, breakdown, _matrix_order(cfg.forward_factor_order)
        )
        rhs_order = _matrix_order(cfg.rhs_order)
        if cfg.forward_factor_storage is FactorStorage.SPARSE:
            state.forward_plan = self._analyse(
                cluster, clocks, i, breakdown, state.device_factor, sub.n_lambda,
                rhs_order=rhs_order,
            )
        if cfg.path is Path.TRSM and cfg.backward_factor_storage is FactorStorage.SPARSE:
            state.backward_plan = self._analyse(
                cluster, clocks, i, breakdown, state.device_factor, sub.n_lambda,
                rhs_order=rhs_order,
            )
        self._allocate_apply_buffers(cluster, sub)

    def _allocate_apply_buffers(self, cluster, sub: OracleShape) -> None:
        """Persistent ``F̃ᵢ`` and dual vectors of one subdomain.

        ``F̃ᵢ`` at the storage dtype, halved when only a triangle is stored
        for the SYMV apply.
        """
        memory = cluster.device.memory
        state = self.device_state[sub.index]
        state.F = memory.allocate(self._f_nbytes(sub), f"F[{sub.index}]")
        state.p = memory.allocate(8 * sub.n_lambda, "p")
        state.q = memory.allocate(8 * sub.n_lambda, "q")

    def _f_nbytes(self, sub: OracleShape) -> int:
        f_bytes = self.storage_dtype.itemsize * sub.n_lambda * sub.n_lambda
        return f_bytes // 2 if self.config.apply_symmetric else f_bytes

    def _close_prepare(self, cluster, clocks: ThreadClocks) -> float:
        # The cluster-wide dual vectors of the GPU scatter/gather path.
        n_lambda = self.shapes.cluster_n_lambda.get(cluster.cluster_id, 0)
        if n_lambda:
            cluster.device.memory.allocate(8 * n_lambda, "cluster-dual-in")
            cluster.device.memory.allocate(8 * n_lambda, "cluster-dual-out")
        return super()._close_prepare(cluster, clocks)

    def preprocess(self) -> Timeline:
        cfg = self.config
        breakdown = dict.fromkeys(
            ("numeric_factorization", "factor_upload", "sparse_to_dense", "trsm", "syrk", "spmm"),
            0.0,
        )
        need_dense = cfg.forward_factor_storage is FactorStorage.DENSE or (
            cfg.path is Path.TRSM and cfg.backward_factor_storage is FactorStorage.DENSE
        )
        cluster_times = []
        for cluster, subs in self.clusters():
            device = cluster.device
            device.reset_timeline()
            arena = device.require_temporary()
            cost = device.cost_model
            clocks = ThreadClocks(cluster.n_threads)
            # CPU cost of factorization + extraction: a function of the pattern.
            factor_costs: dict[int, float] = {}
            for i, sub in enumerate(subs):
                stream = cluster.stream_for(i)
                state = self.device_state[sub.index]

                def kernel(key: str, label: str, duration: float) -> None:
                    op = stream.submit(label, duration, clocks.now(i))
                    clocks.advance(i, cost.submission_overhead_cpu)
                    breakdown[key] += op.duration

                if sub.pattern not in factor_costs:
                    factor_costs[sub.pattern] = cluster.cpu.numeric_factorization(
                        sub.flops, sub.L_nnz, self.shapes.library
                    ) + cluster.cpu.factor_extraction(sub.L_nnz)
                clocks.advance(i, factor_costs[sub.pattern])
                breakdown["numeric_factorization"] += factor_costs[sub.pattern]

                L = state.device_factor
                kernel("factor_upload", f"h2d-values:{L.label}", cost.transfer(8 * L.nnz))

                # Temporary buffers: dense RHS (and dense factor if needed).
                ndofs, n_lambda = sub.ndofs, sub.n_lambda
                temporaries = [arena.allocate(8 * ndofs * n_lambda, "dense-rhs")]
                kernel(
                    "sparse_to_dense",
                    "cusparse.sparse_to_dense",
                    cost.sparse_to_dense(ndofs, n_lambda, sub.B_nnz),
                )
                if need_dense:
                    temporaries.append(arena.allocate(8 * ndofs * ndofs, "dense-factor"))
                    kernel(
                        "sparse_to_dense",
                        "cusparse.sparse_to_dense",
                        cost.sparse_to_dense(ndofs, ndofs, L.nnz),
                    )

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
                    kernel("spmm", "cusparse.spmm", cost.spmm(sub.B_nnz, n_lambda))

                # Temporary buffers are only needed until the kernels finish.
                for allocation in temporaries:
                    allocation.release()
            cluster_times.append(device.synchronize(clocks.max_time))
        return _slowest(cluster_times), breakdown

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

    def _mv_kernel(self, cost_model, n_lambda: int) -> tuple[str, float]:
        """Stream label and duration of one subdomain's application kernel."""
        if self.config.apply_symmetric:
            return "cublas.symv", cost_model.symv(n_lambda)
        return "cublas.gemv", cost_model.gemv(n_lambda, n_lambda)

    def _apply_one(self) -> Timeline:
        if self.config.scatter_gather is ScatterGatherDevice.GPU:
            return self._gpu_scatter()
        return self._cpu_scatter()

    def _gpu_scatter(self) -> Timeline:
        """One H2D + scatter kernel per cluster, the MVs, one gather + D2H."""
        breakdown = {"transfer": 0.0, "scatter_gather": 0.0, "mv": 0.0}
        cluster_times = []
        for cluster, subs in self.clusters():
            if not subs:
                cluster_times.append(0.0)
                continue
            device = cluster.device
            device.reset_timeline()
            clocks = ThreadClocks(cluster.n_threads)
            cost = device.cost_model
            overhead = cost.submission_overhead_cpu
            main_stream = cluster.stream_for(0)
            dual_transfer = cost.transfer(8 * self.shapes.cluster_n_lambda[cluster.cluster_id])
            scatter_gather = cost.scatter_gather(sum(s.n_lambda for s in subs))

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
        return _slowest(cluster_times), breakdown

    def _cpu_scatter(self) -> Timeline:
        """H2D of ``pᵢ``, GEMV/SYMV and D2H of ``qᵢ`` per subdomain on its stream."""

        def kernels(device, sub):
            transfer = device.cost_model.transfer(8 * sub.n_lambda)
            return (
                ("transfer", "h2d:p", transfer),
                ("mv", *self._mv_kernel(device.cost_model, sub.n_lambda)),
                ("transfer", "d2h:q", transfer),
            )

        return self._stream_kernels({"transfer": 0.0, "mv": 0.0}, kernels)


class HybridReplay(GpuExplicitReplay):
    """`expl hybrid`: ``F̃ᵢ`` assembled on the CPU (MKL), copied to the GPU, applied there.

    The original GPU acceleration the paper compares against: preprocessing
    follows `expl mkl` plus the host-to-device copy of ``F̃ᵢ``; the apply is
    the GPU explicit one.  No factor reaches the device.
    """

    reads_rhs_fill = True
    prepare_keys = ("symbolic",)

    def _prepare_subdomain(self, cluster, clocks, i, sub, breakdown) -> None:
        self._allocate_apply_buffers(cluster, sub)

    def preprocess(self) -> Timeline:
        breakdown = {"schur_complement": 0.0, "upload_F": 0.0}
        cluster_times = []
        for cluster, subs in self.clusters():
            device = cluster.device
            device.reset_timeline()
            clocks = ThreadClocks(cluster.n_threads)
            for i, sub in enumerate(subs):
                cost = cluster.cpu.schur_complement(
                    sub.L_nnz, sub.flops, sub.n_lambda, sub.rhs_fill, self.shapes.library,
                    ndofs=sub.ndofs,
                )
                clocks.advance(i, cost)
                breakdown["schur_complement"] += cost

                op = cluster.stream_for(i).submit(
                    "h2d:F", device.cost_model.transfer(self._f_nbytes(sub)), clocks.now(i)
                )
                clocks.advance(i, device.cost_model.submission_overhead_cpu)
                breakdown["upload_F"] += op.duration
            cluster_times.append(device.synchronize(clocks.max_time))
        return _slowest(cluster_times), breakdown


#: The oracle of every production replay family, by its class name.
ORACLES = {
    family.__name__: family
    for family in (
        CpuExplicitReplay,
        CpuImplicitReplay,
        GpuExplicitReplay,
        GpuImplicitReplay,
        HybridReplay,
    )
}


def oracle_replay_for(
    approach,
    problem,
    machine_config=None,
    assembly_config: AssemblyConfig | None = None,
    shapes: OracleShapeTable | None = None,
) -> CostReplay:
    """The oracle of ``approach``'s replay on a fresh machine.

    The shape table comes from the problem's symbolic analyses in a pattern
    cache of its own; ``shapes`` reuses one built for the same problem and
    approach family.
    """
    from repro.feti.operators import _APPROACHES, _machine
    from repro.feti.operators.base import analyze_problem
    from repro.sparse.cache import PatternCache

    _, library, replay = _APPROACHES[approach]
    family = ORACLES[replay.__name__]
    if shapes is None:
        groups = analyze_problem(problem, PatternCache(), scatters=family.reads_rhs_fill)
        analyses = {i: group.symbolic for group in groups for i in group.members}
        scatters = {
            i: scatter for group in groups for i, scatter in zip(group.members, group.scatters)
        }
        shapes = OracleShapeTable.from_analyses(
            problem, analyses, library, family.reads_rhs_fill, scatters
        )
    return family(shapes, _machine(approach, problem, machine_config), assembly_config)
