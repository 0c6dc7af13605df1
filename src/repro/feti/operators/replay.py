"""The cost replays: what each Table-III approach is charged, from shapes alone.

The nine approaches compute ``F = B̃ K⁺ B̃ᵀ`` along two numeric paths (see
:class:`~repro.feti.operators.base.DualOperator`); they differ in where the
work runs and whether ``F̃ᵢ`` is assembled — which is what this module
prices.  A replay reads a :class:`ShapeTable` (the sizes the symbolic
analysis and the gluing fix, no numbers) and advances the simulated clocks
of a :class:`~repro.cluster.topology.Machine`: the per-thread CPU clocks of
:class:`~repro.analysis.timing.ThreadClocks` (subdomains round-robin over a
cluster's threads) and, on the GPU, the device streams, the persistent pool
and the blocking temporary arena of :mod:`repro.gpu`.

The unit of pricing is the shape group: the subdomains of one
:class:`SubdomainShape` (one symbolic analysis, one number of multipliers,
one right-hand-side fill).  Every cost-model duration, byte size and device
structure is evaluated once per group, and a group's member count charges
the pools.  The subdomain loop itself — subdomain ``i`` of a cluster on
thread ``i mod threads`` and stream ``i mod streams`` — runs on plain
floats: each thread clock, stream tail and breakdown sum takes the same
additions and maxima, in the same order, as one stream submission per
kernel would, so every simulated second is bitwise the per-subdomain replay
kept as the oracle in ``tests/oracles/replay.py``.

One replay per approach family — CPU explicit, CPU implicit, GPU explicit,
GPU implicit and hybrid — each with ``prepare()`` / ``preprocess()`` /
``apply(columns)`` returning ``(simulated seconds, breakdown)``.  Clusters
run on different processes, so a phase takes its slowest cluster.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

from repro.analysis.timing import ThreadClocks
from repro.cluster.topology import ClusterResources, Machine
from repro.feti.config import AssemblyConfig, FactorStorage, Path, ScatterGatherDevice
from repro.gpu import cusparse
from repro.gpu.arrays import DeviceCsrMatrix, MatrixOrder
from repro.gpu.cusparse import SparseTrsmPlan
from repro.gpu.device import Device
from repro.gpu.memory import Allocation, buffer, round_up
from repro.gpu.stream import StreamOperation
from repro.sparse.costmodel import CpuLibrary
from repro.sparse.group import PatternGroup

__all__ = [
    "SubdomainShape",
    "ShapeTable",
    "CostReplay",
    "CpuExplicitReplay",
    "CpuImplicitReplay",
    "GpuExplicitReplay",
    "GpuImplicitReplay",
    "HybridReplay",
]

Timeline = tuple[float, dict[str, float]]
#: One stream kernel of a shape: ``(breakdown slot, duration, label)``; a
#: ``{}`` in the label stands for the subdomain index (stream logs only).
Kernel = tuple[int, float, str]


@dataclass(frozen=True)
class SubdomainShape:
    """What the cost model reads of a subdomain; equal shapes are priced once."""

    ndofs: int
    n_lambda: int
    #: Entries of ``K_reg`` and of its factor ``L``.
    K_nnz: int
    L_nnz: int
    #: Flops of one numeric factorization.
    flops: float
    B_nnz: int
    #: Fraction of the Schur assembly's TRSM work left after exploiting the
    #: sparsity of ``B̃ᵢ`` (read by the CPU assembly; 1.0 where unread).
    rhs_fill: float = 1.0


class ShapeTable:
    """The distinct subdomain shapes, and which subdomain has which.

    ``shapes[g]`` is shape group ``g`` (first-seen order), ``shape_of[i]``
    the group of subdomain ``i``.  ``cluster_n_lambda[c]`` is the number of
    distinct multipliers of cluster ``c``: the length of its cluster-wide
    dual vectors.
    """

    def __init__(
        self,
        shapes: Sequence[SubdomainShape],
        shape_of: np.ndarray,
        cluster_of: np.ndarray,
        cluster_n_lambda: dict[int, int],
        library: CpuLibrary,
    ) -> None:
        self.shapes = tuple(shapes)
        self.shape_of = np.asarray(shape_of, dtype=np.int64)
        self.cluster_n_lambda = cluster_n_lambda
        #: The CPU library whose analysis (and factorization) the table prices.
        self.library = library
        cluster_of = np.asarray(cluster_of, dtype=np.int64)
        counts = np.bincount(cluster_of)
        by_cluster = np.split(np.argsort(cluster_of, kind="stable"), np.cumsum(counts)[:-1])
        self._members = {c: by_cluster[c] for c in np.flatnonzero(counts).tolist()}

    def members(self, cluster_id: int) -> np.ndarray:
        """The subdomain indices of one cluster, ascending."""
        return self._members.get(cluster_id, np.empty(0, dtype=np.int64))

    def of_cluster(self, cluster_id: int) -> np.ndarray:
        """The shape group of each of one cluster's subdomains, in subdomain order."""
        return self.shape_of[self.members(cluster_id)]

    def per_shape(self, cost: Callable[[SubdomainShape], float]) -> np.ndarray:
        """``cost(shape)`` of every shape group: one evaluation each."""
        return np.array([cost(shape) for shape in self.shapes], dtype=float)

    @classmethod
    def from_groups(
        cls,
        problem,
        groups: Sequence[PatternGroup],
        library: CpuLibrary,
        rhs_fill: bool = False,
    ) -> "ShapeTable":
        """The table of ``problem`` under its pattern groups.

        ``nnz(K_reg)``, ``nnz(L)`` and the factorization flops are read once
        per pattern group, ``n_λ`` (= ``nnz(B̃ᵢ)``: one entry per row) from
        the gluing entries, the clusters' multiplier counts from one sort
        of them, and ``rhs_fill`` (where the replay reads it)
        from the groups' Schur scatters
        (:meth:`~repro.sparse.schur.SchurScatter.rhs_fill`) once per
        distinct ``starts`` and row order.
        """
        entries = problem.gluing.entries
        subdomains = problem.subdomains
        n_lambda = entries.counts
        group_of = np.zeros(len(subdomains), dtype=np.int64)
        fill_of = np.zeros(len(subdomains), dtype=np.int64)
        patterns = []
        fills: dict[tuple, float] = {}
        fill_ids: dict[float, int] = {1.0: 0}
        for g, group in enumerate(groups):
            symbolic = group.symbolic
            group_of[group.members] = g
            first = subdomains[group.members[0]]
            patterns.append(
                (
                    int(symbolic.n),
                    int(first.csr_arrays("K_reg")[2][-1]),
                    symbolic.nnz,
                    symbolic.factorization_flops(),
                )
            )
            if not rhs_fill:
                continue
            for member, scatter in zip(group.members, group.scatters):
                # Equal starts in equal row order: the same mean, bit for bit.
                order = None if scatter.rank is None else scatter.rank.tobytes()
                fill = fills.get((symbolic.n, scatter.key, order))
                if fill is None:
                    fill = fills[symbolic.n, scatter.key, order] = scatter.rhs_fill(symbolic.n)
                fill_of[member] = fill_ids.setdefault(fill, len(fill_ids))
        # A subdomain's shape is its (pattern group, n_λ, fill): one integer.
        radix = int(n_lambda.max(initial=0)) + 1
        code = (group_of * radix + n_lambda) * len(fill_ids) + fill_of
        _, first_seen, inverse = np.unique(code, return_index=True, return_inverse=True)
        rank = np.argsort(first_seen)
        shape_id = np.empty_like(rank)
        shape_id[rank] = np.arange(rank.size)
        fill_values = list(fill_ids)
        shapes = []
        for i in first_seen[rank].tolist():
            ndofs, K_nnz, L_nnz, flops = patterns[group_of[i]]
            shapes.append(
                SubdomainShape(
                    ndofs=ndofs,
                    n_lambda=int(n_lambda[i]),
                    K_nnz=K_nnz,
                    L_nnz=L_nnz,
                    flops=flops,
                    B_nnz=int(n_lambda[i]),
                    rhs_fill=fill_values[fill_of[i]],
                )
            )
        cluster_of = np.fromiter(
            (sub.cluster for sub in subdomains), dtype=np.int64, count=len(subdomains)
        )
        # One (cluster, multiplier) pair per distinct multiplier of a cluster.
        pairs = np.sort(cluster_of[entries.subdomain] * problem.n_lambda + entries.lam)
        distinct = pairs[np.diff(pairs, prepend=-1) != 0]
        clusters = np.bincount(cluster_of)
        per_cluster = np.bincount(distinct // max(problem.n_lambda, 1), minlength=clusters.size)
        cluster_n_lambda = {c: int(per_cluster[c]) for c in np.flatnonzero(clusters).tolist()}
        return cls(shapes, shape_id[inverse], cluster_of, cluster_n_lambda, library)


def _slowest(cluster_times: list[float]) -> float:
    return max(cluster_times) if cluster_times else 0.0


def _in_order(total: float, values: np.ndarray) -> float:
    """``total + values[0] + values[1] + …``, added left to right.

    Bitwise a loop of ``+=``: ``np.cumsum`` adds in order, where ``np.sum``
    would add pairwise.
    """
    if not values.size:
        return total
    return float(np.cumsum(np.concatenate(([total], values)))[-1])


def _matrix_order(order) -> MatrixOrder:
    """The device memory order of a Table-I factor or RHS order."""
    return MatrixOrder.ROW_MAJOR if order.value == "row-major" else MatrixOrder.COL_MAJOR


class CostReplay:
    """The simulated timeline of one approach family.

    ``prepare()`` charges the symbolic analysis of every subdomain and the
    family's setup; ``preprocess()`` and ``apply(columns)`` are the
    family's own.
    """

    #: Whether the replay reads :attr:`SubdomainShape.rhs_fill`.
    reads_rhs_fill = False

    def __init__(
        self,
        shapes: ShapeTable,
        machine: Machine,
        config: AssemblyConfig | None = None,
        storage_dtype=np.float64,
    ) -> None:
        self.shapes = shapes
        self.machine = machine
        self.config = config or AssemblyConfig()
        #: Storage dtype of the assembled ``F̃ᵢ`` (the precision policy's).
        self.storage_dtype = np.dtype(storage_dtype)
        #: The CPU cost model every cluster shares.
        self._cpu = machine.config.cpu_cost_model

    @classmethod
    def build(
        cls,
        problem,
        groups: Sequence[PatternGroup],
        library: CpuLibrary,
        machine: Machine,
        config: AssemblyConfig | None = None,
        storage_dtype=np.float64,
    ) -> "CostReplay":
        """The replay of ``problem`` from its pattern groups.

        The groups must hold their Schur scatters where the replay reads
        ``rhs_fill``.
        """
        shapes = ShapeTable.from_groups(problem, groups, library, cls.reads_rhs_fill)
        return cls(shapes, machine, config, storage_dtype)

    def clusters(self):
        """Yield ``(resources, shape group of each of its subdomains)`` for every cluster."""
        for cluster in self.machine.clusters:
            yield cluster, self.shapes.of_cluster(cluster.cluster_id)

    def _symbolic(self) -> np.ndarray:
        """The symbolic analysis of each shape group."""
        return self.shapes.per_shape(
            lambda s: self._cpu.symbolic_factorization(s.K_nnz, s.L_nnz)
        )

    def prepare(self) -> Timeline:
        raise NotImplementedError

    def release(self) -> None:
        """Return what :meth:`prepare` charged to the machine (a CPU family
        charges nothing)."""

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

    def _cpu_loop(self, key: str, costs: np.ndarray) -> Timeline:
        """One cost per subdomain (``costs`` by shape group), on its thread's clock."""
        total = 0.0
        cluster_times = []
        for cluster, shape_ids in self.clusters():
            clocks = ThreadClocks(cluster.n_threads)
            item_costs = costs[shape_ids]
            clocks.advance_each(item_costs)
            total = _in_order(total, item_costs)
            cluster_times.append(clocks.elapsed)
        return _slowest(cluster_times), {key: total}

    def prepare(self) -> Timeline:
        return self._cpu_loop("symbolic", self._symbolic())

    def _apply_costs(self) -> dict[str, np.ndarray]:
        """Costs of one column by breakdown key, by shape group."""
        raise NotImplementedError

    def apply(self, columns: int = 1) -> Timeline:
        """Every subdomain's kernels ``columns`` times on its thread's clock.

        (The cost model has no GEMM-efficiency term for a stacked apply.)
        """
        per_shape = self._apply_costs()
        breakdown: dict[str, float] = {}
        cluster_times = []
        for cluster, shape_ids in self.clusters():
            clocks = ThreadClocks(cluster.n_threads)
            costs = {key: columns * c[shape_ids] for key, c in per_shape.items()}
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
            self.shapes.per_shape(
                lambda s: self._cpu.schur_complement(
                    s.L_nnz, s.flops, s.n_lambda, s.rhs_fill, library, ndofs=s.ndofs
                )
            ),
        )

    def _apply_costs(self):
        return {"gemv": self.shapes.per_shape(lambda s: self._cpu.gemv(s.n_lambda, s.n_lambda))}


class CpuImplicitReplay(_CpuReplay):
    """`impl mkl` / `impl cholmod`: factorization, then SpMV-TRSV-TRSV-SpMV."""

    def preprocess(self) -> Timeline:
        library = self.shapes.library
        return self._cpu_loop(
            "numeric_factorization",
            self.shapes.per_shape(
                lambda s: self._cpu.numeric_factorization(s.flops, s.L_nnz, library)
            ),
        )

    def _apply_costs(self):
        return {
            "spmv": self.shapes.per_shape(lambda s: 2.0 * self._cpu.spmv(s.B_nnz)),
            "trsv": self.shapes.per_shape(lambda s: 2.0 * self._cpu.sparse_trsv(s.L_nnz)),
        }


# --------------------------------------------------------------------- #
# GPU families                                                           #
# --------------------------------------------------------------------- #
@dataclass
class DeviceState:
    """One subdomain's persistent device structures (byte sizes, no values).

    Allocation order: the fields' order.
    """

    device_B: DeviceCsrMatrix | None = None
    device_factor: DeviceCsrMatrix | None = None
    forward_plan: SparseTrsmPlan | None = None
    backward_plan: SparseTrsmPlan | None = None
    F: Allocation | None = None
    p: Allocation | None = None
    q: Allocation | None = None
    work: Allocation | None = None

    def allocations(self) -> list[Allocation]:
        """The persistent pool blocks of one holder."""
        blocks = [m.allocation for m in (self.device_B, self.device_factor) if m is not None]
        blocks += [p.persistent_buffer for p in (self.forward_plan, self.backward_plan) if p]
        blocks += [self.F, self.p, self.q, self.work]
        return [block for block in blocks if block is not None]


def _sparse(shape: tuple[int, int], nnz: int, label: str, order=MatrixOrder.ROW_MAJOR):
    """A device sparse matrix and its pool block (sized once per shape group)."""
    matrix = DeviceCsrMatrix(shape=shape, nnz=nnz, order=order, label=label)
    matrix.allocation = buffer(matrix.nbytes, label)
    return matrix


def _plan(model, version, factor: DeviceCsrMatrix, nrhs: int, **kwargs) -> SparseTrsmPlan:
    """A sparse-TRSM plan and its persistent workspace block, if it has one."""
    plan = cusparse.trsm_plan(model, version, factor, nrhs, **kwargs)
    if plan.persistent_bytes > 0:
        plan.persistent_buffer = buffer(plan.persistent_bytes, "cusparse-trsm-workspace")
    return plan


class _GpuReplay(CostReplay):
    """Kernels on per-thread streams; a cluster's phase ends when its device drains."""

    prepare_keys: tuple[str, ...] = ("symbolic", "persistent_upload", "analysis")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._gpu = self.machine.config.gpu_cost_model
        self._version = self.machine.config.cuda_version
        #: One member's persistent device structures, by shape group.
        self._states = [self._device_state(shape) for shape in self.shapes.shapes]
        #: The pool bytes :meth:`prepare` charged, by device (its arena's too).
        self._charged: list[tuple[Device, int]] = []

    @cached_property
    def device_state(self) -> dict[int, DeviceState]:
        """Persistent device structures by subdomain index.

        The members of a shape group share one :class:`DeviceState`: their
        byte sizes, each charged to the pool once per member by
        :meth:`prepare`.
        """
        return dict(enumerate(map(self._states.__getitem__, self.shapes.shape_of.tolist())))

    def _device_state(self, shape: SubdomainShape) -> DeviceState:
        """One member's persistent structures (sizes only)."""
        raise NotImplementedError

    def _patterns(self, shape: SubdomainShape, factor_order: MatrixOrder):
        """The device copies of ``B̃ᵢ`` and of the factor's pattern."""
        return (
            _sparse((shape.n_lambda, shape.ndofs), shape.B_nnz, "B"),
            _sparse((shape.ndofs, shape.ndofs), shape.L_nnz, "L", factor_order),
        )

    def _slots(self, keys: tuple[str, ...], kernels) -> list[tuple[Kernel, ...]]:
        """``(key, duration, label)`` triples by shape group, keys made breakdown slots."""
        return [
            tuple((keys.index(key), duration, label) for key, duration, label in group)
            for group in kernels
        ]

    def _lanes(
        self,
        cluster: ClusterResources,
        clocks: ThreadClocks,
        shape_ids: np.ndarray,
        kernels: list[tuple[Kernel, ...]],
        sums: list[float],
        host: np.ndarray | None = None,
        ready: float | None = None,
    ) -> None:
        """One cluster's subdomain loop, on plain floats.

        Subdomain ``i`` (of shape group ``g``) puts ``host[g]`` on the clock
        of thread ``i mod n_threads``; on stream ``i mod n_streams`` (which
        first waits for ``ready``) each of ``kernels[g]`` then starts at the
        later of the stream's tail and the thread's clock, adds its
        duration to ``sums[slot]`` and costs the thread the submission
        overhead — the operations, in order, of one
        :meth:`~repro.gpu.stream.Stream.submit` per kernel.  The streams
        adopt their tails (and, where kept, their logs) at the end.
        """
        streams = cluster.streams
        tails = [stream.tail for stream in streams]
        times = clocks.clocks
        overhead = self._gpu.submission_overhead_cpu
        logs = members = None
        if any(stream.keep_log for stream in streams):
            logs = [[] for _ in streams]
            members = self.shapes.members(cluster.cluster_id).tolist()
        host = host.tolist() if host is not None else [0.0] * len(kernels)
        n_threads, n_streams = len(times), len(tails)
        for i, g in enumerate(shape_ids.tolist()):
            t, s = i % n_threads, i % n_streams
            now = times[t] + host[g]
            tail = tails[s]
            if ready is not None and ready > tail:
                tail = ready
            for slot, duration, label in kernels[g]:
                start = tail if tail > now else now
                tail = start + duration
                sums[slot] += tail - start
                if logs is not None:
                    logs[s].append(StreamOperation(label.format(members[i]), now, start, tail))
                now += overhead
            times[t] = now
            tails[s] = tail
        for stream, tail, log in zip(streams, tails, logs or repeat(())):
            stream.extend(tail, log)

    def prepare(self) -> Timeline:
        """The symbolic analyses, then every subdomain's persistent device
        structures: their pool bytes, the uploads and the TRSM analyses."""
        blocks = [state.allocations() for state in self._states]
        member_bytes = [sum(block.nbytes for block in group) for group in blocks]

        def charge(device, counts: list[int]) -> None:
            device.memory.allocate_batch(
                sum(count * nbytes for count, nbytes in zip(counts, member_bytes)),
                sum(count * len(group) for count, group in zip(counts, blocks)),
            )

        devices = [cluster.device for cluster in self.machine.clusters]
        before = [device.memory.used_bytes for device in devices]
        timeline = self._stream_loop(
            self.prepare_keys,
            map(self._prepare_kernels, self._states),
            {"symbolic": self._symbolic()},
            charge=charge,
            close=self._close_prepare,
        )
        self._charged = [
            (device, device.memory.used_bytes - used) for device, used in zip(devices, before)
        ]
        return timeline

    def release(self) -> None:
        """Return every pool byte :meth:`prepare` charged and drop the arena
        it made of the rest, so a new preparation finds the pool as it was."""
        for device, nbytes in self._charged:
            device.memory.release_batch(nbytes)
            device.temporary = None
        self._charged = []

    def _prepare_kernels(self, state: DeviceState):
        """The uploads of the persistent patterns, then the TRSM analyses."""
        kernels = [
            ("persistent_upload", self._gpu.transfer(matrix.nbytes), f"h2d:{matrix.label}[{{}}]")
            for matrix in (state.device_B, state.device_factor)
            if matrix is not None
        ]
        kernels += [
            (
                "analysis",
                self._gpu.sparse_trsm_analysis(plan.factor_nnz, plan.version),
                "cusparse.trsm_analysis",
            )
            for plan in (state.forward_plan, state.backward_plan)
            if plan is not None
        ]
        return kernels

    def _close_prepare(self, cluster, clocks: ThreadClocks) -> float:
        """Finish a cluster's preparation; return its elapsed time."""
        device = cluster.device
        if device.temporary is None:
            device.allocate_temporary_arena()
        return device.synchronize(clocks.max_time)

    def _stream_loop(
        self,
        keys: tuple[str, ...],
        kernels,
        host: dict[str, np.ndarray] | None = None,
        *,
        skip_empty: bool = False,
        charge: Callable | None = None,
        close: Callable | None = None,
    ) -> Timeline:
        """Every subdomain's host costs (summed, by breakdown key) then its
        kernels, on every cluster's reset timeline.

        ``skip_empty``: a cluster without subdomains takes 0.0 and leaves
        its device untouched.  ``charge(device, counts)`` takes a cluster's
        memory for its members (``counts`` by shape group) before the loop;
        ``close(cluster, clocks)`` ends a cluster's phase (default: the
        device drains).
        """
        kernels = self._slots(keys, kernels)
        host = host or {}
        host_total = sum(host.values()) if host else None
        sums = [0.0] * len(keys)
        cluster_times = []
        for cluster, shape_ids in self.clusters():
            if skip_empty and not shape_ids.size:
                cluster_times.append(0.0)
                continue
            device = cluster.device
            device.reset_timeline()
            if charge is not None:
                charge(device, np.bincount(shape_ids, minlength=len(kernels)).tolist())
            clocks = ThreadClocks(cluster.n_threads)
            self._lanes(cluster, clocks, shape_ids, kernels, sums, host=host_total)
            for key, costs in host.items():
                slot = keys.index(key)
                sums[slot] = _in_order(sums[slot], costs[shape_ids])
            if close is not None:
                cluster_times.append(close(cluster, clocks))
            else:
                cluster_times.append(device.synchronize(clocks.max_time))
        return _slowest(cluster_times), dict(zip(keys, sums))

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

    def _device_state(self, shape: SubdomainShape) -> DeviceState:
        B, L = self._patterns(shape, MatrixOrder.ROW_MAJOR)
        return DeviceState(
            device_B=B,
            device_factor=L,
            forward_plan=_plan(self._gpu, self._version, L, 1),
            p=buffer(8 * shape.n_lambda, "p"),
            q=buffer(8 * shape.n_lambda, "q"),
            work=buffer(8 * shape.ndofs, "work"),
        )

    def preprocess(self) -> Timeline:
        library = self.shapes.library
        factorization = self.shapes.per_shape(
            lambda s: self._cpu.numeric_factorization(s.flops, s.L_nnz, library)
        )
        extraction = self.shapes.per_shape(lambda s: self._cpu.factor_extraction(s.L_nnz))
        upload = [
            (("upload", self._gpu.transfer(L.values_nbytes), f"h2d-values:{L.label}[{{}}]"),)
            for L in (state.device_factor for state in self._states)
        ]
        return self._stream_loop(
            ("numeric_factorization", "factor_extraction", "upload"),
            upload,
            {"numeric_factorization": factorization, "factor_extraction": extraction},
        )

    def _apply_one(self) -> Timeline:
        cost = self._gpu

        def kernels(shape: SubdomainShape):
            transfer = cost.transfer(8 * shape.n_lambda)
            spmv = cost.spmv(shape.B_nnz)
            trsv = cost.sparse_trsm(shape.L_nnz, shape.ndofs, 1, self._version)
            return (
                ("transfer", transfer, "h2d:p"),
                ("spmv", spmv, "cusparse.spmv"),
                ("trsv", trsv, "cusparse.trsv_fwd"),
                ("trsv", trsv, "cusparse.trsv_bwd"),
                ("spmv", spmv, "cusparse.spmv"),
                ("transfer", transfer, "d2h:q"),
            )

        return self._stream_loop(
            ("transfer", "spmv", "trsv"), map(kernels, self.shapes.shapes), skip_empty=True
        )


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

    def _device_state(self, shape: SubdomainShape) -> DeviceState:
        cfg = self.config
        B, L = self._patterns(shape, _matrix_order(cfg.forward_factor_order))
        state = DeviceState(device_B=B, device_factor=L)
        rhs_order = _matrix_order(cfg.rhs_order)
        if cfg.forward_factor_storage is FactorStorage.SPARSE:
            state.forward_plan = _plan(
                self._gpu, self._version, L, shape.n_lambda, rhs_order=rhs_order
            )
        if cfg.path is Path.TRSM and cfg.backward_factor_storage is FactorStorage.SPARSE:
            state.backward_plan = _plan(
                self._gpu, self._version, L, shape.n_lambda, rhs_order=rhs_order
            )
        self._apply_buffers(state, shape)
        return state

    def _apply_buffers(self, state: DeviceState, shape: SubdomainShape) -> DeviceState:
        """Persistent ``F̃ᵢ`` and dual vectors of one subdomain.

        ``F̃ᵢ`` at the storage dtype, halved when only a triangle is stored
        for the SYMV apply.
        """
        state.F = buffer(self._f_nbytes(shape), "F")
        state.p = buffer(8 * shape.n_lambda, "p")
        state.q = buffer(8 * shape.n_lambda, "q")
        return state

    def _f_nbytes(self, shape: SubdomainShape) -> int:
        f_bytes = self.storage_dtype.itemsize * shape.n_lambda * shape.n_lambda
        return f_bytes // 2 if self.config.apply_symmetric else f_bytes

    def _close_prepare(self, cluster, clocks: ThreadClocks) -> float:
        # The cluster-wide dual vectors of the GPU scatter/gather path.
        n_lambda = self.shapes.cluster_n_lambda.get(cluster.cluster_id, 0)
        if n_lambda:
            cluster.device.memory.allocate(8 * n_lambda, "cluster-dual-in")
            cluster.device.memory.allocate(8 * n_lambda, "cluster-dual-out")
        return super()._close_prepare(cluster, clocks)

    def preprocess(self) -> Timeline:
        library = self.shapes.library
        # CPU cost of factorization + extraction: a function of the pattern.
        factor = self.shapes.per_shape(
            lambda s: self._cpu.numeric_factorization(s.flops, s.L_nnz, library)
            + self._cpu.factor_extraction(s.L_nnz)
        )
        assembly = list(map(self._assembly, self.shapes.shapes, self._states))

        def charge(device, counts: list[int]) -> None:
            # Every member's temporaries are back before the next one's.
            arena = device.require_temporary()
            held = [peak for (_, (peak, _)), count in zip(assembly, counts) if count]
            if held:
                arena.hold_batch(
                    max(held),
                    sum(count * n for (_, (_, n)), count in zip(assembly, counts)),
                )

        return self._stream_loop(
            ("numeric_factorization", "factor_upload", "sparse_to_dense", "trsm", "syrk", "spmm"),
            [kernels for kernels, _ in assembly],
            {"numeric_factorization": factor},
            charge=charge,
        )

    def _assembly(self, shape: SubdomainShape, state: DeviceState):
        """One member's assembly: its kernels, and the most arena bytes it
        holds at once with its number of arena buffers."""
        cfg, cost = self.config, self._gpu
        ndofs, n_lambda = shape.ndofs, shape.n_lambda
        L = state.device_factor
        to_dense = "cusparse.sparse_to_dense"
        kernels = [
            ("factor_upload", cost.transfer(L.values_nbytes), f"h2d-values:{L.label}[{{}}]"),
            ("sparse_to_dense", cost.sparse_to_dense(ndofs, n_lambda, shape.B_nnz), to_dense),
        ]
        # Temporary buffers: the dense RHS (and the dense factor if needed),
        # held until the kernels finish; a sparse solve's workspace only
        # while it runs.
        held = [round_up(8 * ndofs * n_lambda)]
        if cfg.forward_factor_storage is FactorStorage.DENSE or (
            cfg.path is Path.TRSM and cfg.backward_factor_storage is FactorStorage.DENSE
        ):
            held.append(round_up(8 * ndofs * ndofs))
            kernels.append(("sparse_to_dense", cost.sparse_to_dense(ndofs, ndofs, L.nnz), to_dense))
        workspaces: list[int] = []
        self._triangular_solve(
            kernels, workspaces, state.forward_plan, cfg.forward_factor_storage, shape
        )
        if cfg.path is Path.SYRK:
            kernels.append(("syrk", cost.syrk(n_lambda, ndofs), "cublas.syrk"))
        else:
            self._triangular_solve(
                kernels, workspaces, state.backward_plan, cfg.backward_factor_storage, shape
            )
            kernels.append(("spmm", cost.spmm(shape.B_nnz, n_lambda), "cusparse.spmm"))
        return kernels, (sum(held) + max(workspaces, default=0), len(held) + len(workspaces))

    def _triangular_solve(
        self,
        kernels: list,
        workspaces: list[int],
        plan: SparseTrsmPlan | None,
        storage: FactorStorage,
        shape: SubdomainShape,
    ) -> None:
        """One triangular solve of the assembly: dense cuBLAS or sparse cuSPARSE.

        The sparse solve holds its temporary workspace for the kernel's
        duration.
        """
        cost = self._gpu
        ndofs, n_lambda = shape.ndofs, shape.n_lambda
        if storage is FactorStorage.DENSE:
            kernels.append(("trsm", cost.dense_trsm(ndofs, n_lambda), "cublas.trsm"))
            return
        assert plan is not None
        if plan.temporary_bytes > 0:
            workspaces.append(round_up(plan.temporary_bytes))
        duration = cost.sparse_trsm(
            plan.factor_nnz, ndofs, n_lambda, plan.version, plan.csc_factor,
            plan.col_major_rhs,
        )
        kernels.append(("trsm", duration, "cusparse.trsm"))

    def _mv_kernel(self, shape: SubdomainShape) -> tuple[str, float, str]:
        """Breakdown key, duration and stream label of one subdomain's application kernel."""
        if self.config.apply_symmetric:
            return "mv", self._gpu.symv(shape.n_lambda), "cublas.symv"
        return "mv", self._gpu.gemv(shape.n_lambda, shape.n_lambda), "cublas.gemv"

    def _apply_one(self) -> Timeline:
        if self.config.scatter_gather is ScatterGatherDevice.GPU:
            return self._gpu_scatter()
        return self._cpu_scatter()

    def _gpu_scatter(self) -> Timeline:
        """One H2D + scatter kernel per cluster, the MVs, one gather + D2H."""
        keys = ("transfer", "scatter_gather", "mv")
        kernels = self._slots(keys, ((self._mv_kernel(shape),) for shape in self.shapes.shapes))
        n_lambda = [shape.n_lambda for shape in self.shapes.shapes]
        sums = [0.0] * len(keys)
        cluster_times = []
        for cluster, shape_ids in self.clusters():
            if not shape_ids.size:
                cluster_times.append(0.0)
                continue
            device = cluster.device
            device.reset_timeline()
            clocks = ThreadClocks(cluster.n_threads)
            cost = device.cost_model
            overhead = cost.submission_overhead_cpu
            main_stream = cluster.stream_for(0)
            dual_transfer = cost.transfer(8 * self.shapes.cluster_n_lambda[cluster.cluster_id])
            counts = np.bincount(shape_ids, minlength=len(n_lambda)).tolist()
            scatter_gather = cost.scatter_gather(sum(c * n for c, n in zip(counts, n_lambda)))

            op = main_stream.submit("h2d:cluster-dual", dual_transfer, clocks.now(0))
            sums[0] += op.duration
            scatter_op = main_stream.submit("gpu.scatter", scatter_gather, op.end_time)
            sums[1] += scatter_op.duration
            clocks.advance(0, 2 * overhead)

            # GEMV/SYMV kernels on per-subdomain streams, after the scatter.
            self._lanes(cluster, clocks, shape_ids, kernels, sums, ready=scatter_op.end_time)

            # One gather kernel + one D2H copy after all GEMVs finish.
            main_stream.wait_for(max(s.tail for s in cluster.streams))
            gather_op = main_stream.submit("gpu.gather", scatter_gather, clocks.max_time)
            sums[1] += gather_op.duration
            op = main_stream.submit("d2h:cluster-dual", dual_transfer, gather_op.end_time)
            sums[0] += op.duration
            cluster_times.append(device.synchronize(clocks.max_time))
        return _slowest(cluster_times), dict(zip(keys, sums))

    def _cpu_scatter(self) -> Timeline:
        """H2D of ``pᵢ``, GEMV/SYMV and D2H of ``qᵢ`` per subdomain on its stream."""

        def kernels(shape: SubdomainShape):
            transfer = self._gpu.transfer(8 * shape.n_lambda)
            return (
                ("transfer", transfer, "h2d:p"),
                self._mv_kernel(shape),
                ("transfer", transfer, "d2h:q"),
            )

        return self._stream_loop(
            ("transfer", "mv"), map(kernels, self.shapes.shapes), skip_empty=True
        )


class HybridReplay(GpuExplicitReplay):
    """`expl hybrid`: ``F̃ᵢ`` assembled on the CPU (MKL), copied to the GPU, applied there.

    The original GPU acceleration the paper compares against: preprocessing
    follows `expl mkl` plus the host-to-device copy of ``F̃ᵢ``; the apply is
    the GPU explicit one.  No factor reaches the device.
    """

    reads_rhs_fill = True
    prepare_keys = ("symbolic",)

    def _device_state(self, shape: SubdomainShape) -> DeviceState:
        return self._apply_buffers(DeviceState(), shape)

    def preprocess(self) -> Timeline:
        library = self.shapes.library
        schur = self.shapes.per_shape(
            lambda s: self._cpu.schur_complement(
                s.L_nnz, s.flops, s.n_lambda, s.rhs_fill, library, ndofs=s.ndofs
            )
        )
        upload = [
            (("upload_F", self._gpu.transfer(self._f_nbytes(shape)), "h2d:F"),)
            for shape in self.shapes.shapes
        ]
        return self._stream_loop(
            ("schur_complement", "upload_F"), upload, {"schur_complement": schur}
        )
