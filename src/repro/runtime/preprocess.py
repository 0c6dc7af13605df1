"""FETI preprocessing on the runtime: pattern groups → factor bands and ``F̃ᵢ``.

Every backend's FETI preprocessing — the numeric factorization of every
``Kᵢ`` and, for the explicit approaches, the assembly of
``F̃ᵢ = B̃ᵢ Kᵢ⁺ B̃ᵢᵀ`` — runs through :func:`run_preprocessing`, on one path
whatever the executor.  Its unit of work is the operator's
:class:`~repro.sparse.group.PatternGroup`: the subdomains sharing one
symbolic analysis, found once when the operator was prepared
(:func:`~repro.feti.operators.base.analyze_problem`).

1. The serial executor runs one task over every group.  ``threads:n`` cuts
   the group-ordered member list into at most ``n`` contiguous spans
   (``np.array_split``), one task each; a span holds the runs of the groups
   it crosses.
2. Every run of a group gets one :func:`~repro.sparse.numeric.stacked_cholesky`
   of its ``(k, nnz)`` values — one LAPACK ``dpbtrf`` on the run's
   ``(k·n, kd + 1)`` block-diagonal band — then one
   :func:`~repro.sparse.schur.stacked_schur_complement` per interface class
   of the run (the members whose ``P B̃ᵢᵀ`` have the same sorted column
   first rows, :func:`~repro.sparse.schur.interface_classes`), which reads
   the members' rows of the band.  The classes come from the group's
   :class:`~repro.sparse.schur.SchurScatter` of every ``B̃ᵢ``, built once
   when the operator was prepared.

A group keeps one band.  A run that is its whole group (every group under
``serial``) keeps the band its factorization returned; a group cut across
spans gets its band before the tasks start and each run is factored into
its rows of it, so no band is copied after the round and every ``K⁺`` solve
runs on one layout whatever the executor.  The groups take their bands
once every task has finished: a round that raises leaves them without.

Every executor runs the same task function on the same values, a member's
factor does not depend on where its run puts it and its ``F̃ᵢ`` not on which
other members share its class, so the factors and every ``F̃ᵢ`` are bitwise
equal across executors.  A member that is not positive definite fails its
task with a :class:`~repro.sparse.numeric.NotPositiveDefiniteError` naming
its subdomain index and the column of the failing pivot.
"""

from __future__ import annotations

from concurrent.futures import wait
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.memory.precision import demote_array
from repro.observe.trace import trace_span
from repro.runtime.executor import Executor
from repro.sparse.group import PatternGroup
from repro.sparse.numeric import NotPositiveDefiniteError, stacked_cholesky, stacked_values
from repro.sparse.schur import interface_classes, schur_workspace, stacked_schur_complement

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.feti.problem import SubdomainProblem

__all__ = ["run_preprocessing"]

#: A run of one group: ``(group position, first member, stop)``.
Run = tuple[int, int, int]


def _spans(groups: Sequence[Sequence], workers: int) -> list[list[Run]]:
    """Cut the group-ordered member list into ``≤ workers`` contiguous spans.

    Each span is the list of its groups' runs, in order.
    """
    bounds = np.cumsum([0] + [len(group) for group in groups]).tolist()
    spans = []
    for span in np.array_split(np.arange(bounds[-1]), workers):
        if span.size:
            lo, hi = int(span[0]), int(span[-1]) + 1
            spans.append([
                (g, max(lo, a) - a, min(hi, b) - a)
                for g, (a, b) in enumerate(zip(bounds, bounds[1:]))
                if a < hi and lo < b
            ])
    return spans


def _run_span(
    runs: list[Run],
    groups: Sequence[PatternGroup],
    bands: dict[int, np.ndarray],
    subdomains: Sequence["SubdomainProblem"],
    dtype: np.dtype,
) -> dict[int, np.ndarray]:
    """One task: per run, a stacked factorization, then ``F̃ᵢ`` per class.

    A run of a group cut across spans is factored into its rows of the
    group's band in ``bands``; a whole group's band goes into ``bands``.
    The values are read from the members' stiffness stack (one ``(k, nnz)``
    gather, :meth:`~repro.feti.problem.SubdomainProblem.csr_arrays`).
    Returns the ``F̃ᵢ`` by subdomain index — empty without scatters.
    """
    local_F: dict[int, np.ndarray] = {}
    for g, start, stop in runs:
        group, shared = groups[g], bands.get(g)
        symbolic, members = group.symbolic, group.members[start:stop]
        with trace_span("factorize", subdomains=len(members)):
            values = stacked_values(
                [subdomains[i].csr_arrays("K_reg") for i in members], symbolic
            )
            try:
                band = stacked_cholesky(
                    values, symbolic, None if shared is None else shared[start:stop]
                )
            except NotPositiveDefiniteError as err:
                raise NotPositiveDefiniteError(members[err.member], err.column) from None
            del values
            if shared is None:
                band = bands[g] = demote_array(band, dtype)
        if not group.scatters:
            continue
        scatters = group.scatters[start:stop]
        classes = interface_classes(scatters)
        # One sweep buffer serves the run's classes: its pages fault once.
        workspace = schur_workspace(
            symbolic.n * max(len(m) * scatters[m[0]].n_dual for m in classes)
        )
        for positions in classes:
            n_lambda = scatters[positions[0]].n_dual
            with trace_span("schur_assembly", subdomains=len(positions), n_lambda=n_lambda):
                F = stacked_schur_complement(
                    symbolic,
                    [band[i] for i in positions],
                    [scatters[i] for i in positions],
                    workspace,
                )
            for i, Fi in zip(positions, F):
                local_F[members[i]] = Fi
        del workspace
    return local_F


# --------------------------------------------------------------------- #
# Entry point                                                            #
# --------------------------------------------------------------------- #
def run_preprocessing(
    executor: Executor,
    groups: Sequence[PatternGroup],
    subdomains: Sequence["SubdomainProblem"],
    dtype: np.dtype = np.dtype(np.float64),
) -> dict[int, np.ndarray]:
    """Factorize every group (and assemble ``F̃ᵢ`` where it has scatters).

    ``subdomains`` is the problem's subdomain list, indexed by subdomain
    index; ``dtype`` the storage dtype of the bands.  On return every group
    holds the band of its members' factors for the current stiffness
    values; the returned dict maps subdomain indices to their ``F̃ᵢ``.
    """
    spans = _spans(groups, executor.workers)
    # A group cut across spans gets its band up front: each run fills its rows.
    bands: dict[int, np.ndarray] = {}
    for g, start, stop in (run for span in spans for run in span):
        symbolic = groups[g].symbolic
        if stop - start < len(groups[g]) and g not in bands:
            bands[g] = np.empty((len(groups[g]), symbolic.n, symbolic.kd + 1), dtype)
    futures = [
        executor.submit(_run_span, span, groups, bands, subdomains, dtype) for span in spans
    ]
    # Every task finishes before the round reports, so a task that raises
    # fails the round with its own exception and leaves none running on.
    wait(futures)
    local_F: dict[int, np.ndarray] = {}
    for future in futures:
        local_F.update(future.result())
    for g, group in enumerate(groups):
        group.band = bands[g]
    return local_F
