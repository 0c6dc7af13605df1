"""Parallel preprocessing orchestration: shards → futures → injected factors.

This module is the bridge between the dual operators and the runtime: every
backend's FETI preprocessing (numeric factorization, and for the explicit
approaches the Schur-complement assembly of the local dual operators) is
funneled through :func:`run_preprocessing`, which dispatches the work per
:class:`~repro.runtime.shard.Shard` on the operator's executor:

``serial`` (one worker)
    The historical per-subdomain loop, bit-for-bit: ``solver.factorize`` /
    ``solver.schur_complement`` / ``solver.rhs_fill`` in cluster order.
``threads``
    Shards run as in-process futures executing the batched kernels of
    :mod:`repro.runtime.kernels`; results are arrays handed back to the
    parent, which injects them into the solvers in deterministic shard
    order.
``processes``
    Shards run in pool workers.  Bulk inputs (the stacked stiffness values
    and the packed gluing matrices) are written by the parent into input
    slots of the round's :class:`~repro.runtime.shm.SharedArena` and read
    by the workers as zero-copy views; outputs — the stacked factor panels
    and the padded ``local_F`` pack — are written back into the same arena
    and adopted by the parent's solvers as views.  Only slot descriptors
    and scalar metadata cross the pool's pipes.  Each worker keeps its own
    :class:`~repro.sparse.cache.PatternCache`, so a pattern's symbolic
    analysis is recomputed at most once per worker and shards hitting the
    same pattern reuse it across preprocessing rounds.

All three backends produce the same numbers: the serial loop and the
sharded kernels are value-identical (the factorization bit-for-bit, the
Schur assembly to machine rounding), and the two parallel backends execute
literally the same kernels on the same shard decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from repro.observe.trace import trace_span
from repro.runtime.executor import Executor
from repro.runtime.kernels import (
    batched_factor_panels,
    batched_schur_complements,
    csr_to_csc_map,
    padded_dual_rhs,
)
from repro.runtime.shard import Shard, ShardPlan
from repro.runtime.shm import (
    ArenaSlot,
    SharedArena,
    attach_view,
    slot_view,
    write_slot,
)
from repro.sparse.cache import PatternCache, structural_key
from repro.sparse.numeric import CholeskyFactor, numeric_cholesky
from repro.sparse.schur import rhs_sparsity_fill, schur_complement

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.feti.problem import SubdomainProblem
    from repro.sparse.solvers import SparseSolverBase

__all__ = ["SubdomainPreprocessed", "PreprocessRound", "run_preprocessing"]


@dataclass
class SubdomainPreprocessed:
    """Per-subdomain outputs the operator's bookkeeping loop consumes."""

    #: Assembled local dual operator (``None`` unless ``need_schur``); a
    #: zero-copy view into the round's stacked pack where sharded.
    local_F: np.ndarray | None = None
    #: RHS sparsity fill of the cost model (``None`` unless requested).
    rhs_fill: float | None = None


@dataclass
class PreprocessRound:
    """One preprocessing round: outputs plus the buffers backing them.

    The operator holds the most recent round, keeping any shared-memory
    arenas (and therefore the factor panels and ``local_F`` views) alive
    until the next round replaces them.
    """

    outputs: dict[int, SubdomainPreprocessed] = field(default_factory=dict)
    plan: ShardPlan | None = None
    arenas: list[SharedArena] = field(default_factory=list)

    def __getitem__(self, subdomain_index: int) -> SubdomainPreprocessed:
        return self.outputs[subdomain_index]


# --------------------------------------------------------------------- #
# Grouping                                                               #
# --------------------------------------------------------------------- #
@dataclass
class _Group:
    """Same-pattern subdomains of one shard, batched together."""

    subs: list["SubdomainProblem"]
    solvers: list["SparseSolverBase"]
    batched: bool  # stacked kernels vs the per-subdomain fallback loop
    pattern_key: tuple = ()  # structural identity of the shared K pattern

    @property
    def width(self) -> int:
        """Padded local-dual width of the group."""
        return max((s.n_lambda for s in self.subs), default=0)


def _canonical_csr(K: sp.spmatrix) -> sp.csr_matrix:
    A = sp.csr_matrix(K)
    if not A.has_sorted_indices:
        A = A.copy()
        A.sort_indices()
    return A


def _shard_groups(
    shard: Shard,
    subdomains: Mapping[int, "SubdomainProblem"],
    solvers: Mapping[int, "SparseSolverBase"],
) -> list[_Group]:
    """Group a shard's subdomains by stiffness pattern (order-preserving)."""
    groups: dict[Any, _Group] = {}
    order: list[Any] = []
    for index in shard.subdomain_indices:
        sub = subdomains[index]
        solver = solvers[index]
        key = structural_key(sub.K_reg)
        group = groups.get(key)
        if group is None:
            symbolic = solver.symbolic  # analyzed during prepare()
            batched = (
                symbolic.supernodes is not None
                and symbolic.a_lower_map is not None
                and symbolic.supernodes.ainit_pos is not None
            )
            group = _Group(subs=[], solvers=[], batched=batched, pattern_key=key)
            groups[key] = group
            order.append(key)
        group.subs.append(sub)
        group.solvers.append(solver)
    return [groups[key] for key in order]


def _stacked_csc_data(group: _Group) -> np.ndarray | None:
    """Canonical-CSC value stack of a same-pattern group (``None`` = bail)."""
    base = _canonical_csr(group.subs[0].K_reg)
    cmap = csr_to_csc_map(base)
    rows = []
    for sub in group.subs:
        A = _canonical_csr(sub.K_reg)
        if A.indices.shape != base.indices.shape or not np.array_equal(
            A.indices, base.indices
        ):
            return None  # structurally equal but laid out differently
        rows.append(np.asarray(A.data, dtype=float))
    return np.stack(rows)[:, cmap]


def _grouped_rhs_fills(group: _Group, perm: np.ndarray) -> list[float]:
    """``rhs_fill`` per subdomain, computed once per distinct ``B̃`` pattern."""
    fills: list[float] = []
    cache: dict[Any, float] = {}
    for sub in group.subs:
        key = structural_key(sub.B)
        fill = cache.get(key)
        if fill is None:
            fill = rhs_sparsity_fill(sub.B, perm)
            cache[key] = fill
        fills.append(fill)
    return fills


# --------------------------------------------------------------------- #
# In-process shard execution (serial fallback pieces + threads backend)  #
# --------------------------------------------------------------------- #
@dataclass
class _GroupComputed:
    """What one group's computation produced (arrays or arena views)."""

    panels: np.ndarray | None = None  # (k, panel_entries) batched factors
    loop_factors: list[CholeskyFactor] | None = None  # fallback path
    schur: np.ndarray | None = None  # (k, width, width) padded pack
    rhs_fills: list[float] | None = None


def _compute_group_inproc(
    group: _Group,
    need_schur: bool,
    exploit_rhs_sparsity: bool,
    need_rhs_fill: bool,
) -> _GroupComputed:
    """Run one group's preprocessing in the current process."""
    out = _GroupComputed()
    symbolic = group.solvers[0].symbolic
    stacked = _stacked_csc_data(group) if group.batched else None
    if stacked is not None:
        out.panels = batched_factor_panels(stacked, symbolic)
        if need_schur:
            rhs = padded_dual_rhs([s.B for s in group.subs], symbolic.perm, group.width)
            out.schur = batched_schur_complements(symbolic, out.panels, rhs)
    else:
        out.loop_factors = []
        out.schur = (
            np.zeros((len(group.subs), group.width, group.width))
            if need_schur
            else None
        )
        for i, (sub, solver) in enumerate(zip(group.subs, group.solvers)):
            factor = numeric_cholesky(sub.K_reg, solver.symbolic)
            out.loop_factors.append(factor)
            if need_schur:
                F = schur_complement(
                    factor, sub.B, exploit_rhs_sparsity=exploit_rhs_sparsity
                )
                out.schur[i, : sub.n_lambda, : sub.n_lambda] = F
    if need_rhs_fill:
        out.rhs_fills = _grouped_rhs_fills(group, symbolic.perm)
    return out


def _compute_shard_inproc(args: tuple) -> list[_GroupComputed]:
    """Thread-backend shard task: compute every group, return the arrays."""
    groups, need_schur, exploit, need_fill = args
    n_subdomains = sum(len(g.subs) for g in groups)
    with trace_span("factorize", backend="threads", subdomains=n_subdomains):
        return [
            _compute_group_inproc(g, need_schur, exploit, need_fill)
            for g in groups
        ]


# --------------------------------------------------------------------- #
# Process-backend shard execution                                        #
# --------------------------------------------------------------------- #
#: Worker-local pattern cache: each pool worker re-derives a pattern's
#: symbolic analysis at most once and reuses it across rounds and shards.
_WORKER_PATTERN_CACHE = PatternCache()

#: Worker-local symbolic analyses seeded from the parent (keyed by the
#: parent's pattern digest): the first round of a pattern ships the
#: analysis once per shard, later rounds send only the digest.
_WORKER_SYMBOLIC: dict[tuple, Any] = {}


def _pack_sparse(A: sp.spmatrix) -> tuple:
    csr = _canonical_csr(A)
    return (
        np.asarray(csr.data, dtype=float),
        np.asarray(csr.indices),
        np.asarray(csr.indptr),
        tuple(csr.shape),
    )


def _unpack_sparse(packed: tuple) -> sp.csr_matrix:
    data, indices, indptr, shape = packed
    return sp.csr_matrix((data, indices, indptr), shape=shape)


#: Pending parent-side input writes: ``(slot, values)`` pairs recorded while
#: the arena layout is still open, flushed once ``create()`` has run.
_Writes = list  # list[tuple[ArenaSlot, np.ndarray]]


def _sparse_to_slots(arena: SharedArena, writes: _Writes, A: sp.spmatrix) -> dict:
    """Lay one CSR matrix out as three arena input slots (+ its shape)."""
    csr = _canonical_csr(A)
    data = np.asarray(csr.data, dtype=float)
    indices = np.asarray(csr.indices)
    indptr = np.asarray(csr.indptr)
    ref = {
        "data": arena.allocate_of(data),
        "indices": arena.allocate_of(indices),
        "indptr": arena.allocate_of(indptr),
        "shape": tuple(csr.shape),
    }
    writes.append((ref["data"], data))
    writes.append((ref["indices"], indices))
    writes.append((ref["indptr"], indptr))
    return ref


def _sparse_from_slots(buf: memoryview, ref: dict) -> sp.csr_matrix:
    """Rebuild a CSR matrix over arena views (worker side, zero-copy data)."""
    return sp.csr_matrix(
        (
            slot_view(buf, ref["data"]),
            slot_view(buf, ref["indices"]),
            slot_view(buf, ref["indptr"]),
        ),
        shape=ref["shape"],
    )


def _worker_symbolic(group: dict):
    """The group's symbolic analysis inside a pool worker.

    Preference order: the analysis seeded by the parent (shipped once per
    pattern per shard, then cached under its digest), else the worker's own
    pattern cache — each worker re-derives a pattern at most once either
    way.
    """
    key = group["symbolic_key"]
    symbolic = _WORKER_SYMBOLIC.get(key)
    if symbolic is not None:
        return symbolic
    symbolic = group.get("symbolic")
    if symbolic is None:
        pattern = sp.csr_matrix(
            (
                np.ones(len(group["k_indices"]), dtype=float),
                group["k_indices"],
                group["k_indptr"],
            ),
            shape=group["k_shape"],
        )
        symbolic = _WORKER_PATTERN_CACHE.symbolic_for(pattern, group["ordering"])
    _WORKER_SYMBOLIC[key] = symbolic
    return symbolic


def _run_shard_process(payload: dict) -> list[dict]:
    """Process-backend shard task: compute groups, write arrays to the arena.

    The payload is slot descriptors and scalars only: bulk *inputs* (the
    stacked stiffness values and the packed gluing matrices) are read as
    zero-copy views of the shared arena, and bulk outputs are written back
    into it — nothing but metadata crosses the pool's pipes.
    """
    shm = buf = None
    if payload["arena"] is not None:
        shm, buf = attach_view(payload["arena"])
    n_groups = len(payload["groups"])
    with trace_span("factorize", backend="processes", groups=n_groups):
        return _run_shard_process_body(payload, shm, buf)


def _run_shard_process_body(payload: dict, shm, buf) -> list[dict]:
    try:
        results: list[dict] = []
        for g in payload["groups"]:
            symbolic = _worker_symbolic(g)
            meta: dict[str, Any] = {}
            if g["kind"] == "batched":
                panels = batched_factor_panels(
                    slot_view(buf, g["data_slot"]), symbolic
                )
                write_slot(buf, g["panels_slot"], panels)
                if g["schur_slot"] is not None:
                    Bs = [_sparse_from_slots(buf, ref) for ref in g["Bs"]]
                    rhs = padded_dual_rhs(Bs, symbolic.perm, g["width"])
                    write_slot(
                        buf,
                        g["schur_slot"],
                        batched_schur_complements(symbolic, panels, rhs),
                    )
            else:
                for item in g["items"]:
                    K = _sparse_from_slots(buf, item["K"])
                    factor = numeric_cholesky(K, symbolic)
                    write_slot(buf, item["values_slot"], factor.values)
                    if item["schur_slot"] is not None:
                        B = _sparse_from_slots(buf, item["B"])
                        F = schur_complement(
                            factor, B, exploit_rhs_sparsity=g["exploit"]
                        )
                        out = np.zeros(item["schur_slot"].shape)
                        out[: F.shape[0], : F.shape[1]] = F
                        write_slot(buf, item["schur_slot"], out)
            if g["need_rhs_fill"]:
                fills: list[float] = []
                cache: dict[Any, float] = {}
                for ref in g["Bs"]:
                    B = _sparse_from_slots(buf, ref)
                    key = structural_key(B)
                    if key not in cache:
                        cache[key] = rhs_sparsity_fill(B, symbolic.perm)
                    fills.append(cache[key])
                meta["rhs_fills"] = fills
            results.append(meta)
        return results
    finally:
        if shm is not None:
            shm.close()


def _build_process_payload(
    shard_groups: list[_Group],
    arena: SharedArena,
    need_schur: bool,
    exploit_rhs_sparsity: bool,
    need_rhs_fill: bool,
    seeded_keys: set,
) -> tuple[dict, list[dict], _Writes]:
    """Build one shard's payload, the parent-side slot map and input writes.

    The payload references bulk inputs by arena slot; the returned writes
    are flushed by the caller once the arena layout is frozen and backed.
    """
    groups_payload: list[dict] = []
    slot_maps: list[dict] = []
    writes: _Writes = []
    for group in shard_groups:
        symbolic = group.solvers[0].symbolic
        base = _canonical_csr(group.subs[0].K_reg)
        ordering = group.solvers[0].ordering.value
        symbolic_key = (ordering, *group.pattern_key)
        common = {
            "k_indices": np.asarray(base.indices),
            "k_indptr": np.asarray(base.indptr),
            "k_shape": tuple(base.shape),
            "ordering": ordering,
            # Seed the workers with the parent's analysis on the pattern's
            # first round only — shipping ~tens of kilobytes once beats
            # re-deriving it per worker, and re-pickling it every multi-step
            # round would waste exactly that transfer.  A worker that still
            # misses the digest re-derives from the pattern arrays above.
            "symbolic_key": symbolic_key,
            "symbolic": None if symbolic_key in seeded_keys else symbolic,
            "need_rhs_fill": need_rhs_fill,
            "exploit": exploit_rhs_sparsity,
            "Bs": [_sparse_to_slots(arena, writes, s.B) for s in group.subs]
            if (need_schur or need_rhs_fill)
            else [],
        }
        stacked = _stacked_csc_data(group) if group.batched else None
        if stacked is not None:
            part = symbolic.supernodes
            data_slot = arena.allocate_of(stacked)
            writes.append((data_slot, stacked))
            panels_slot = arena.allocate((len(group.subs), int(part.panel_entries)))
            schur_slot = (
                arena.allocate((len(group.subs), group.width, group.width))
                if need_schur
                else None
            )
            groups_payload.append(
                {
                    "kind": "batched",
                    "data_slot": data_slot,
                    "width": group.width,
                    "panels_slot": panels_slot,
                    "schur_slot": schur_slot,
                    **common,
                }
            )
            slot_maps.append(
                {"kind": "batched", "panels": panels_slot, "schur": schur_slot}
            )
        else:
            items = []
            item_slots = []
            for sub in group.subs:
                values_slot = arena.allocate((symbolic.nnz,))
                schur_slot = (
                    arena.allocate((sub.n_lambda, sub.n_lambda))
                    if need_schur
                    else None
                )
                items.append(
                    {
                        "K": _sparse_to_slots(arena, writes, sub.K_reg),
                        "B": _sparse_to_slots(arena, writes, sub.B)
                        if need_schur
                        else None,
                        "values_slot": values_slot,
                        "schur_slot": schur_slot,
                    }
                )
                item_slots.append({"values": values_slot, "schur": schur_slot})
            groups_payload.append({"kind": "loop", "items": items, **common})
            slot_maps.append({"kind": "loop", "items": item_slots})
    # The arena name is filled in by the caller once the layout is frozen
    # and the segment exists (create() runs after every shard allocated).
    payload = {"arena": None, "groups": groups_payload}
    return payload, slot_maps, writes


# --------------------------------------------------------------------- #
# Result injection                                                       #
# --------------------------------------------------------------------- #
def _adopt_group(
    group: _Group,
    computed: _GroupComputed,
    round_: PreprocessRound,
    need_schur: bool,
) -> None:
    """Install one group's results into its solvers and the round outputs."""
    if computed.panels is not None:
        part = group.solvers[0].symbolic.supernodes
        values_stack = computed.panels[:, part.lpos]
        for i, solver in enumerate(group.solvers):
            factor = CholeskyFactor(
                symbolic=solver.symbolic,
                values=values_stack[i],
                _panel_values=computed.panels[i],
            )
            # The matrix rides along for refining precision policies, which
            # keep it for the residual sweeps; adopt ignores it otherwise.
            solver.adopt_factor(factor, matrix=group.subs[i].K_reg)
    else:
        assert computed.loop_factors is not None
        for sub, solver, factor in zip(
            group.subs, group.solvers, computed.loop_factors
        ):
            solver.adopt_factor(factor, matrix=sub.K_reg)
    for i, sub in enumerate(group.subs):
        out = round_.outputs.setdefault(sub.index, SubdomainPreprocessed())
        if need_schur and computed.schur is not None:
            out.local_F = computed.schur[i, : sub.n_lambda, : sub.n_lambda]
        if computed.rhs_fills is not None:
            out.rhs_fill = computed.rhs_fills[i]


# --------------------------------------------------------------------- #
# Entry point                                                            #
# --------------------------------------------------------------------- #
def run_preprocessing(
    executor: Executor,
    clusters: Sequence[tuple[int, Sequence["SubdomainProblem"]]],
    solvers: Mapping[int, "SparseSolverBase"],
    *,
    need_schur: bool = False,
    exploit_rhs_sparsity: bool = True,
    need_rhs_fill: bool = False,
) -> PreprocessRound:
    """Factorize every subdomain (and optionally assemble ``F̃ᵢ``) via shards.

    On return every solver in ``solvers`` carries a numeric factorization
    for the current stiffness values; the returned round maps subdomain
    indices to their :class:`SubdomainPreprocessed` outputs and owns any
    shared-memory buffers backing them.
    """
    round_ = PreprocessRound()
    subdomains = {s.index: s for _, subs in clusters for s in subs}

    if executor.workers <= 1:
        # The historical reference loop, bit-for-bit (including the
        # per-column start-row exploitation of the PARDISO Schur path).
        with trace_span("factorize", backend="serial", subdomains=len(subdomains)):
            for _, subs in clusters:
                for sub in subs:
                    solver = solvers[sub.index]
                    with trace_span("factorize", subdomain=sub.index):
                        solver.factorize(sub.K_reg)
                    out = SubdomainPreprocessed()
                    if need_schur:
                        with trace_span("schur_assembly", subdomain=sub.index):
                            out.local_F = solver.schur_complement(sub.B)
                    if need_rhs_fill:
                        out.rhs_fill = solver.rhs_fill(sub.B)
                    round_.outputs[sub.index] = out
        return round_

    plan = ShardPlan.for_clusters(
        [(cid, [s.index for s in subs]) for cid, subs in clusters],
        executor.workers,
    )
    round_.plan = plan
    shard_groups = [
        _shard_groups(shard, subdomains, solvers) for shard in plan.shards
    ]

    if executor.backend == "processes":
        arena = SharedArena()
        payloads_and_slots = [
            _build_process_payload(
                groups,
                arena,
                need_schur,
                exploit_rhs_sparsity,
                need_rhs_fill,
                executor.seeded_keys,
            )
            for groups in shard_groups
        ]
        arena.create()
        round_.arenas.append(arena)
        for payload, _, writes in payloads_and_slots:
            payload["arena"] = arena.name
            # Flush the bulk inputs into the arena before any worker runs:
            # the workers read them as zero-copy views, so the payloads
            # themselves carry only slot descriptors and scalars.
            for slot, values in writes:
                arena.view(slot)[...] = values
        futures = [
            executor.submit(_run_shard_process, payload)
            for payload, _, _ in payloads_and_slots
        ]
        for (groups, future, (_, slot_maps, _)) in zip(
            shard_groups, futures, payloads_and_slots
        ):
            metas = future.result()
            for group, meta, slots in zip(groups, metas, slot_maps):
                computed = _GroupComputed(rhs_fills=meta.get("rhs_fills"))
                if slots["kind"] == "batched":
                    computed.panels = arena.view(slots["panels"])
                    if slots["schur"] is not None:
                        computed.schur = arena.view(slots["schur"])
                else:
                    computed.loop_factors = []
                    if need_schur:
                        width = max((s.n_lambda for s in group.subs), default=0)
                        computed.schur = np.zeros((len(group.subs), width, width))
                    for i, (solver, item) in enumerate(
                        zip(group.solvers, slots["items"])
                    ):
                        factor = CholeskyFactor(
                            symbolic=solver.symbolic,
                            values=arena.view(item["values"]),
                        )
                        computed.loop_factors.append(factor)
                        if item["schur"] is not None:
                            F = arena.view(item["schur"])
                            computed.schur[i, : F.shape[0], : F.shape[1]] = F
                _adopt_group(group, computed, round_, need_schur)
        # Every worker has now either cached or re-derived these analyses;
        # later rounds ship only the digests.
        for payload, _, _ in payloads_and_slots:
            for g in payload["groups"]:
                executor.seeded_keys.add(g["symbolic_key"])
        return round_

    # threads: in-process futures over the same batched kernels.
    futures = [
        executor.submit(
            _compute_shard_inproc,
            (groups, need_schur, exploit_rhs_sparsity, need_rhs_fill),
        )
        for groups in shard_groups
    ]
    for groups, future in zip(shard_groups, futures):
        for group, computed in zip(groups, future.result()):
            _adopt_group(group, computed, round_, need_schur)
    return round_
