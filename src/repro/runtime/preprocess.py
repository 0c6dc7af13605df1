"""FETI preprocessing on the runtime: shards → pattern groups → factors and ``F̃ᵢ``.

Every backend's FETI preprocessing — the numeric factorization of every
``Kᵢ`` and, for the explicit approaches, the assembly of
``F̃ᵢ = B̃ᵢ Kᵢ⁺ B̃ᵢᵀ`` — runs through :func:`run_preprocessing`, on one path
whatever the executor:

1. :class:`~repro.runtime.shard.ShardPlan` splits every cluster into one
   shard per worker; the serial executor has one worker, so it runs one shard
   per cluster, inline in its ``submit``.
2. Within a shard, the subdomains sharing a symbolic analysis form a group,
   and every group runs :func:`_preprocess_group`: one
   :func:`~repro.sparse.numeric.stacked_cholesky` of the group's ``(k, nnz)``
   values, then one :func:`~repro.sparse.solvers.schur_complements` per
   interface class of the group (the members whose ``P B̃ᵢᵀ`` have the same
   sorted column first rows, :func:`~repro.sparse.schur.interface_classes`).
   The classes come from the operator's
   :class:`~repro.sparse.schur.SchurScatter` of every ``B̃ᵢ``, built once
   when it was prepared: its solver facade (PARDISO- or CHOLMOD-like) is the
   one place that decides how the sparsity of ``B̃ᵢ`` is exploited.

The backends differ only in where the inputs and outputs live.  ``serial``
and ``threads`` run the groups on the parent's own solvers.  ``processes``
runs them in pool workers on throwaway facades of the same class and
precision: the parent writes the stacked values into input slots of the
round's :class:`~repro.runtime.shm.SharedArena`, the workers write the
factors (panels and diagonal-block inverses) and every ``F̃ᵢ`` into output
slots, and the parent's solvers adopt them as views.  No bulk value crosses
the pool's pipes, only slot descriptors, index arrays (the pattern's and the
``B̃ᵢ`` scatters) and, on a pattern's first round, its symbolic analysis.
Each worker keeps its own :class:`~repro.sparse.cache.PatternCache`, so a
pattern's symbolic analysis is derived at most once per worker.

Every backend runs the same group function on the same values, and a
member's ``F̃ᵢ`` does not depend on which other members share its class, so
the factors and every ``F̃ᵢ`` are bitwise equal across executors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from repro.observe.trace import trace_span
from repro.runtime.executor import Executor
from repro.runtime.shard import Shard, ShardPlan
from repro.runtime.shm import SharedArena, attach_view, slot_view, write_slot
from repro.sparse.cache import PatternCache, structural_key
from repro.sparse.numeric import CholeskyFactor, stacked_cholesky, stacked_values
from repro.sparse.schur import SchurScatter, interface_classes
from repro.sparse.solvers import schur_complements

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.feti.problem import SubdomainProblem
    from repro.sparse.solvers import SparseSolverBase
    from repro.sparse.symbolic import SymbolicFactor

__all__ = ["PreprocessRound", "run_preprocessing"]


@dataclass
class PreprocessRound:
    """One preprocessing round: every ``F̃ᵢ`` plus the buffers backing them.

    ``local_F`` maps subdomain indices to their ``F̃ᵢ`` (empty unless the
    round assembled them; zero-copy arena views under the process backend).  The
    operator pops each one into its pack, so no ``F̃ᵢ`` outlives its
    installation.  The operator holds the most recent round, keeping the
    process backend's shared-memory arena (and therefore the adopted factors)
    alive until the next round replaces it.
    """

    local_F: dict[int, np.ndarray] = field(default_factory=dict)
    arena: SharedArena | None = None


# --------------------------------------------------------------------- #
# One group: a stacked factorization, then F̃ᵢ per interface class       #
# --------------------------------------------------------------------- #
@dataclass
class _Group:
    """The subdomains of one shard that share one symbolic analysis."""

    symbolic: "SymbolicFactor"
    subs: list["SubdomainProblem"] = field(default_factory=list)
    solvers: list["SparseSolverBase"] = field(default_factory=list)


def _shard_groups(
    shard: Shard,
    subdomains: Mapping[int, "SubdomainProblem"],
    solvers: Mapping[int, "SparseSolverBase"],
) -> list[_Group]:
    """Group a shard's subdomains by symbolic analysis (order-preserving)."""
    groups: dict[int, _Group] = {}
    for index in shard.subdomain_indices:
        symbolic = solvers[index].symbolic  # analysed during prepare()
        group = groups.get(id(symbolic))
        if group is None:
            group = groups[id(symbolic)] = _Group(symbolic)
        group.subs.append(subdomains[index])
        group.solvers.append(solvers[index])
    return list(groups.values())


def _adopt(
    symbolic: "SymbolicFactor",
    panels: np.ndarray,
    inverses: np.ndarray,
    solvers: Sequence["SparseSolverBase"],
    matrices: Sequence[sp.spmatrix],
) -> None:
    """Install row ``i`` of the stacked factors as solver ``i``'s factor.

    The matrix rides along for refining precision policies, which keep it
    for their residual sweeps.
    """
    for solver, row, inverse, K in zip(solvers, panels, inverses, matrices):
        solver.adopt_factor(CholeskyFactor(symbolic, row, inverse), matrix=K)


def _preprocess_group(
    symbolic: "SymbolicFactor",
    values: np.ndarray,
    solvers: Sequence["SparseSolverBase"],
    matrices: Sequence[sp.spmatrix],
    scatters: Sequence[SchurScatter],
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """One group's preprocessing, whichever executor runs it.

    One stacked factorization of the ``(k, nnz)`` ``values``, adopted by the
    member solvers, then one stacked assembly per interface class of the
    members' ``scatters`` (empty unless the approach assembles ``F̃ᵢ``).
    Returns the stacked panels and diagonal-block inverses, and the ``F̃ᵢ``
    in member order.
    """
    with trace_span("factorize", subdomains=len(solvers)):
        panels, inverses = stacked_cholesky(values, symbolic)
        _adopt(symbolic, panels, inverses, solvers, matrices)
    local_F = [None] * len(scatters)
    for members in interface_classes(scatters):
        n_lambda = scatters[members[0]].n_dual
        with trace_span("schur_assembly", subdomains=len(members), n_lambda=n_lambda):
            F = schur_complements(
                [solvers[i] for i in members], [scatters[i] for i in members]
            )
        for i, Fi in zip(members, F):
            local_F[i] = Fi
    return panels, inverses, local_F


def _run_shard(
    groups: list[_Group], scatters: Mapping[int, SchurScatter]
) -> list[list[np.ndarray]]:
    """In-process shard task (serial, threads): the parent's own solvers."""
    out = []
    for g in groups:
        matrices = [s.K_reg for s in g.subs]
        *_, local_F = _preprocess_group(
            g.symbolic,
            stacked_values(matrices, g.symbolic),
            g.solvers,
            matrices,
            [scatters[s.index] for s in g.subs] if scatters else [],
        )
        out.append(local_F)
    return out


# --------------------------------------------------------------------- #
# Process backend: the same groups, inputs and outputs in arena slots    #
# --------------------------------------------------------------------- #
#: Worker-local pattern cache: each pool worker re-derives a pattern's
#: symbolic analysis at most once and reuses it across rounds and shards.
_WORKER_PATTERN_CACHE = PatternCache()

#: Worker-local symbolic analyses seeded from the parent (keyed by the
#: parent's pattern digest): the first round of a pattern ships the
#: analysis once per shard, later rounds send only the digest.
_WORKER_SYMBOLIC: dict[tuple, Any] = {}

#: Pending parent-side input writes: ``(slot, values)`` pairs recorded while
#: the arena layout is still open, flushed once ``create()`` has run.
_Writes = list  # list[tuple[ArenaSlot, np.ndarray]]


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
        indptr, indices, shape = group["pattern"]
        pattern = sp.csr_matrix(
            (np.ones(len(indices), dtype=float), indices, indptr), shape=shape
        )
        symbolic = _WORKER_PATTERN_CACHE.symbolic_for(pattern, group["ordering"])
    _WORKER_SYMBOLIC[key] = symbolic
    return symbolic


def _run_shard_process(payload: dict) -> None:
    """Process shard task: the groups on worker-local facades, via the arena.

    The stacked values are read as a zero-copy view of the arena; the
    factors and every ``F̃ᵢ`` are written back into it.  Each member gets a
    fresh facade of the parent solver's class and precision, so the class
    assembly reads factors stored exactly as the parent's are.
    """
    shm, buf = attach_view(payload["arena"])
    try:
        for g in payload["groups"]:
            symbolic = _worker_symbolic(g)
            values = slot_view(buf, g["values"])
            shape = (symbolic.n, symbolic.n)
            matrices = [
                sp.csc_matrix((row, symbolic.a_indices, symbolic.a_indptr), shape=shape)
                for row in values
            ]
            facade, precision = g["facade"]
            panels, inverses, local_F = _preprocess_group(
                symbolic,
                values,
                [facade(pattern_cache=False, precision=precision) for _ in matrices],
                matrices,
                g["scatters"],
            )
            write_slot(buf, g["panels"], panels)
            write_slot(buf, g["inverses"], inverses)
            for slot, F in zip(g["local_F"], local_F):
                write_slot(buf, slot, F)
    finally:
        shm.close()


def _group_payload(
    g: _Group,
    arena: SharedArena,
    writes: _Writes,
    scatters: Mapping[int, SchurScatter],
    seeded_keys: set,
) -> dict:
    """One group's worker payload: slot descriptors and index arrays, no bulk values."""
    solver, part = g.solvers[0], g.symbolic.supernodes
    values = stacked_values([s.K_reg for s in g.subs], g.symbolic)
    values_slot = arena.allocate_of(values)
    writes.append((values_slot, values))
    key = (solver.ordering.value, *structural_key(g.subs[0].K_reg))
    return {
        # Seed the workers with the parent's analysis on the pattern's first
        # round only; later rounds send the digest, and a worker that still
        # misses it re-derives the analysis from the pattern.
        "symbolic_key": key,
        "symbolic": None if key in seeded_keys else g.symbolic,
        "pattern": (g.symbolic.a_indptr, g.symbolic.a_indices, (g.symbolic.n,) * 2),
        "ordering": solver.ordering.value,
        "facade": (type(solver), solver.precision),
        "values": values_slot,
        "panels": arena.allocate((len(g.subs), part.panel_entries)),
        "inverses": arena.allocate((len(g.subs), part.inverse_entries)),
        "scatters": [scatters[s.index] for s in g.subs] if scatters else [],
        "local_F": [arena.allocate((s.n_lambda,) * 2) for s in g.subs] if scatters else [],
    }


def _run_in_processes(
    executor: Executor,
    shard_groups: list[list[_Group]],
    round_: PreprocessRound,
    scatters: Mapping[int, SchurScatter],
) -> list[list[list[np.ndarray]]]:
    """Run every shard in the pool; adopt the factors and ``F̃ᵢ`` as arena views."""
    arena = SharedArena()
    writes: _Writes = []
    payloads = [
        [_group_payload(g, arena, writes, scatters, executor.seeded_keys) for g in groups]
        for groups in shard_groups
    ]
    # The layout is frozen once every shard has allocated its slots: back
    # it, then flush the inputs before any worker runs.
    arena.create()
    round_.arena = arena
    for slot, array in writes:
        arena.view(slot)[...] = array
    futures = [
        executor.submit(_run_shard_process, {"arena": arena.name, "groups": groups})
        for groups in payloads
    ]
    for future in futures:
        future.result()

    local_F = []
    for groups, payload_groups in zip(shard_groups, payloads):
        shard_F = []
        for g, p in zip(groups, payload_groups):
            matrices = [s.K_reg for s in g.subs]
            factors = arena.view(p["panels"]), arena.view(p["inverses"])
            _adopt(g.symbolic, *factors, g.solvers, matrices)
            shard_F.append([arena.view(slot) for slot in p["local_F"]])
            # Every worker has now either cached or re-derived the analysis.
            executor.seeded_keys.add(p["symbolic_key"])
        local_F.append(shard_F)
    return local_F


# --------------------------------------------------------------------- #
# Entry point                                                            #
# --------------------------------------------------------------------- #
def run_preprocessing(
    executor: Executor,
    clusters: Sequence[tuple[int, Sequence["SubdomainProblem"]]],
    solvers: Mapping[int, "SparseSolverBase"],
    *,
    scatters: Mapping[int, SchurScatter] | None = None,
) -> PreprocessRound:
    """Factorize every subdomain (and assemble ``F̃ᵢ`` given ``scatters``) via shards.

    ``scatters`` maps every subdomain index to the
    :class:`~repro.sparse.schur.SchurScatter` of its ``B̃ᵢ`` under its
    solver's analysis; without it the round only factorizes.  On return
    every solver in ``solvers`` carries a numeric factorization for the
    current stiffness values; the returned round holds every ``F̃ᵢ`` and
    owns any shared-memory buffers backing them.
    """
    scatters = scatters or {}
    subdomains = {s.index: s for _, subs in clusters for s in subs}
    plan = ShardPlan.for_clusters(
        [(cid, [s.index for s in subs]) for cid, subs in clusters], executor.workers
    )
    shard_groups = [_shard_groups(shard, subdomains, solvers) for shard in plan.shards]
    round_ = PreprocessRound()
    if executor.backend == "processes":
        local_F = _run_in_processes(executor, shard_groups, round_, scatters)
    else:
        futures = [
            executor.submit(_run_shard, groups, scatters) for groups in shard_groups
        ]
        local_F = [future.result() for future in futures]
    for groups, shard_F in zip(shard_groups, local_F):
        for g, group_F in zip(groups, shard_F):
            for sub, F in zip(g.subs, group_F):
                round_.local_F[sub.index] = F
    return round_
