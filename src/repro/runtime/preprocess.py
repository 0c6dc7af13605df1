"""FETI preprocessing on the runtime: pattern groups → factors and ``F̃ᵢ``.

Every backend's FETI preprocessing — the numeric factorization of every
``Kᵢ`` and, for the explicit approaches, the assembly of
``F̃ᵢ = B̃ᵢ Kᵢ⁺ B̃ᵢᵀ`` — runs through :func:`run_preprocessing`, on one path
whatever the executor.  Its unit of work is the operator's **pattern
group**: the subdomains sharing one symbolic analysis, found once when the
operator was prepared (:func:`~repro.feti.operators.base.analyze_problem`).

1. The serial executor runs one task over every group.  ``threads:n`` cuts
   the group-ordered member list into at most ``n`` contiguous spans
   (``np.array_split``), one task each; a span holds the runs of the groups
   it crosses.
2. Every run of a group gets one :func:`~repro.sparse.numeric.stacked_cholesky`
   of its ``(k, nnz)`` values — one LAPACK ``dpbtrf`` on the run's
   ``(k·n, kd + 1)`` block-diagonal band, the band the ``K⁺`` solves read —
   whose rows the member solvers adopt, then one
   :func:`~repro.sparse.solvers.schur_complements` per interface class of
   the run (the members whose ``P B̃ᵢᵀ`` have the same sorted column first
   rows, :func:`~repro.sparse.schur.interface_classes`).  The classes come
   from the operator's :class:`~repro.sparse.schur.SchurScatter` of every
   ``B̃ᵢ``, built once when it was prepared: every column of ``P B̃ᵢᵀ``
   joins the sweep at its first nonzero row, on every explicit approach.

Tasks run on the caller's own solvers, inline under ``serial`` and as
thread-pool futures under ``threads``.  Every executor runs the same task
function on the same values, a member's factor does not depend on where its
group's stack puts it and its ``F̃ᵢ`` not on which other members share its
class, so the factors and every ``F̃ᵢ`` are bitwise equal across executors.
A member that is not positive definite fails its task with a
:class:`~repro.sparse.numeric.NotPositiveDefiniteError` naming its subdomain
index and the column of the failing pivot.
"""

from __future__ import annotations

from concurrent.futures import wait
from itertools import groupby
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.observe.trace import trace_span
from repro.runtime.executor import Executor
from repro.sparse.numeric import (
    CholeskyFactor,
    NotPositiveDefiniteError,
    stacked_cholesky,
    stacked_values,
)
from repro.sparse.schur import SchurScatter, interface_classes, schur_workspace
from repro.sparse.solvers import schur_complements

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.feti.problem import SubdomainProblem
    from repro.sparse.solvers import SparseSolver

__all__ = ["run_preprocessing"]

#: The subdomains of one pattern group (or of a span's run of one).
Group = Sequence["SubdomainProblem"]


def _spans(groups: Sequence[Group], workers: int) -> list[list[Group]]:
    """Cut the group-ordered member list into ``≤ workers`` contiguous spans.

    Each span is the list of its groups' runs, in order.
    """
    members = [(g, sub) for g, subs in enumerate(groups) for sub in subs]
    spans = []
    for span in np.array_split(np.arange(len(members)), workers):
        if span.size:
            runs = groupby((members[i] for i in span), key=lambda member: member[0])
            spans.append([[sub for _, sub in run] for _, run in runs])
    return spans


def _run_span(
    groups: list[Group],
    solvers: Mapping[int, "SparseSolver"],
    scatters: Mapping[int, SchurScatter],
) -> dict[int, np.ndarray]:
    """One task: per group, a stacked factorization, then ``F̃ᵢ`` per class.

    The group's values are read from its members' stiffness stack (one
    ``(k, nnz)`` gather, :meth:`~repro.feti.problem.SubdomainProblem.csr_arrays`).
    The members' solvers adopt row ``i`` of the stacked bands.  Returns the
    ``F̃ᵢ`` by subdomain index — empty without ``scatters``.
    """
    local_F: dict[int, np.ndarray] = {}
    for subs in groups:
        group_solvers = [solvers[s.index] for s in subs]
        symbolic = group_solvers[0].symbolic  # analysed during prepare()
        with trace_span("factorize", subdomains=len(subs)):
            values = stacked_values([s.csr_arrays("K_reg") for s in subs], symbolic)
            try:
                bands = stacked_cholesky(values, symbolic)
            except NotPositiveDefiniteError as err:
                raise NotPositiveDefiniteError(subs[err.member].index, err.column) from None
            del values
            for solver, band in zip(group_solvers, bands):
                solver.adopt_factor(CholeskyFactor(symbolic, band))
        if not scatters:
            continue
        group_scatters = [scatters[s.index] for s in subs]
        classes = interface_classes(group_scatters)
        # One sweep buffer serves the group's classes: its pages fault once.
        workspace = schur_workspace(
            symbolic.n * max(len(m) * group_scatters[m[0]].n_dual for m in classes)
        )
        for members in classes:
            n_lambda = group_scatters[members[0]].n_dual
            with trace_span("schur_assembly", subdomains=len(members), n_lambda=n_lambda):
                F = schur_complements(
                    [group_solvers[i] for i in members],
                    [group_scatters[i] for i in members],
                    workspace,
                )
            for i, Fi in zip(members, F):
                local_F[subs[i].index] = Fi
        del workspace
    return local_F


# --------------------------------------------------------------------- #
# Entry point                                                            #
# --------------------------------------------------------------------- #
def run_preprocessing(
    executor: Executor,
    groups: Sequence[Group],
    solvers: Mapping[int, "SparseSolver"],
    *,
    scatters: Mapping[int, SchurScatter] | None = None,
) -> dict[int, np.ndarray]:
    """Factorize every subdomain (and assemble ``F̃ᵢ`` given ``scatters``) per group.

    ``groups`` are the pattern groups: the subdomains sharing one symbolic
    analysis of their solvers.  ``scatters`` maps every subdomain index to
    the :class:`~repro.sparse.schur.SchurScatter` of its ``B̃ᵢ`` under its
    solver's analysis; without it the round only factorizes.  On return
    every solver of a group member carries a numeric factorization for the
    current stiffness values; the returned dict maps subdomain indices to
    their ``F̃ᵢ``.
    """
    scatters = scatters or {}
    futures = [
        executor.submit(_run_span, span, solvers, scatters)
        for span in _spans(groups, executor.workers)
    ]
    # Every task finishes before the round reports, so a task that raises
    # fails the round with its own exception and leaves none running on.
    wait(futures)
    local_F: dict[int, np.ndarray] = {}
    for future in futures:
        local_F.update(future.result())
    return local_F
