"""FETI preprocessing on the runtime: shards → pattern groups → factors and ``F̃ᵢ``.

Every backend's FETI preprocessing — the numeric factorization of every
``Kᵢ`` and, for the explicit approaches, the assembly of
``F̃ᵢ = B̃ᵢ Kᵢ⁺ B̃ᵢᵀ`` — runs through :func:`run_preprocessing`, on one path
whatever the executor:

1. :class:`~repro.runtime.shard.ShardPlan` splits every cluster into one
   shard per worker; the serial executor has one worker, so it runs one shard
   per cluster, inline in its ``submit``.
2. Within a shard, the subdomains sharing a symbolic analysis form a group,
   and every group gets one :func:`~repro.sparse.numeric.stacked_cholesky`
   of its ``(k, nnz)`` values — one LAPACK ``dpbtrf`` on the group's
   ``(k·n, kd + 1)`` block-diagonal band, the band the ``K⁺`` solves read —
   whose rows the member solvers adopt, then one
   :func:`~repro.sparse.solvers.schur_complements` per interface class of
   the group (the members whose ``P B̃ᵢᵀ`` have the same sorted column first
   rows, :func:`~repro.sparse.schur.interface_classes`).  The classes come
   from the operator's :class:`~repro.sparse.schur.SchurScatter` of every
   ``B̃ᵢ``, built once when it was prepared: every column of ``P B̃ᵢᵀ``
   joins the sweep at its first nonzero row, on every explicit approach.

Shards run on the caller's own solvers, inline under ``serial`` and as
thread-pool futures under ``threads``.  Every executor runs the same shard
function on the same values, a member's factor does not depend on where its
group's stack puts it and its ``F̃ᵢ`` not on which other members share its
class, so the factors and every ``F̃ᵢ`` are bitwise equal across executors.
A member that is not positive definite fails its shard with a
:class:`~repro.sparse.numeric.NotPositiveDefiniteError` naming its subdomain
index and the column of the failing pivot.
"""

from __future__ import annotations

from concurrent.futures import wait
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.observe.trace import trace_span
from repro.runtime.executor import Executor
from repro.runtime.shard import Shard, ShardPlan
from repro.sparse.numeric import (
    CholeskyFactor,
    NotPositiveDefiniteError,
    stacked_cholesky,
    stacked_values,
)
from repro.sparse.schur import SchurScatter, interface_classes
from repro.sparse.solvers import schur_complements

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.feti.problem import SubdomainProblem
    from repro.sparse.solvers import SparseSolver
    from repro.sparse.symbolic import SymbolicFactor

__all__ = ["run_preprocessing"]


@dataclass
class _Group:
    """The subdomains of one shard that share one symbolic analysis."""

    symbolic: "SymbolicFactor"
    subs: list["SubdomainProblem"] = field(default_factory=list)
    solvers: list["SparseSolver"] = field(default_factory=list)


def _shard_groups(
    shard: Shard,
    subdomains: Mapping[int, "SubdomainProblem"],
    solvers: Mapping[int, "SparseSolver"],
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


def _run_shard(
    groups: list[_Group], scatters: Mapping[int, SchurScatter]
) -> dict[int, np.ndarray]:
    """One shard task: per group, a stacked factorization, then ``F̃ᵢ`` per class.

    The group's values are read from its members' stiffness stack (one
    ``(k, nnz)`` gather, :meth:`~repro.feti.problem.SubdomainProblem.csr_arrays`).
    The members' solvers adopt row ``i`` of the stacked bands (with the
    matrix only under a refining precision policy, which keeps it for its
    residual sweeps).  Returns the ``F̃ᵢ`` by subdomain index — empty without
    ``scatters``.
    """
    local_F: dict[int, np.ndarray] = {}
    for g in groups:
        with trace_span("factorize", subdomains=len(g.solvers)):
            values = stacked_values([s.csr_arrays("K_reg") for s in g.subs], g.symbolic)
            try:
                bands = stacked_cholesky(values, g.symbolic)
            except NotPositiveDefiniteError as err:
                raise NotPositiveDefiniteError(g.subs[err.member].index, err.column) from None
            del values
            for sub, solver, band in zip(g.subs, g.solvers, bands):
                # Only a refining policy keeps the matrix (its residual sweeps).
                K = sub.K_reg if solver.precision.refine else None
                solver.adopt_factor(CholeskyFactor(g.symbolic, band), matrix=K)
        if not scatters:
            continue
        group_scatters = [scatters[s.index] for s in g.subs]
        for members in interface_classes(group_scatters):
            n_lambda = group_scatters[members[0]].n_dual
            with trace_span("schur_assembly", subdomains=len(members), n_lambda=n_lambda):
                F = schur_complements(
                    [g.solvers[i] for i in members], [group_scatters[i] for i in members]
                )
            for i, Fi in zip(members, F):
                local_F[g.subs[i].index] = Fi
    return local_F


# --------------------------------------------------------------------- #
# Entry point                                                            #
# --------------------------------------------------------------------- #
def run_preprocessing(
    executor: Executor,
    clusters: Sequence[tuple[int, Sequence["SubdomainProblem"]]],
    solvers: Mapping[int, "SparseSolver"],
    *,
    scatters: Mapping[int, SchurScatter] | None = None,
) -> dict[int, np.ndarray]:
    """Factorize every subdomain (and assemble ``F̃ᵢ`` given ``scatters``) via shards.

    ``scatters`` maps every subdomain index to the
    :class:`~repro.sparse.schur.SchurScatter` of its ``B̃ᵢ`` under its
    solver's analysis; without it the round only factorizes.  On return
    every solver in ``solvers`` carries a numeric factorization for the
    current stiffness values; the returned dict maps subdomain indices to
    their ``F̃ᵢ``.
    """
    scatters = scatters or {}
    subdomains = {s.index: s for _, subs in clusters for s in subs}
    plan = ShardPlan.for_clusters(
        [(cid, [s.index for s in subs]) for cid, subs in clusters], executor.workers
    )
    futures = [
        executor.submit(_run_shard, _shard_groups(shard, subdomains, solvers), scatters)
        for shard in plan.shards
    ]
    # Every shard finishes before the round reports, so a shard that raises
    # fails the round with its own exception and leaves none running on.
    wait(futures)
    local_F: dict[int, np.ndarray] = {}
    for future in futures:
        local_F.update(future.result())
    return local_F
