"""Test oracle: an operator's subdomains, cluster by cluster, on a priced machine.

The per-cluster loops of the oracles and the tests that inspect one
cluster's simulated device read the subdomains of every cluster beside its
:class:`~repro.cluster.topology.ClusterResources`.  An operator holds no
machine — only the price list of its approach — so they read the machine
of :func:`priced_replay`: the same replay, on a fresh machine, driven
through the phases the price list was priced from.  The numeric
preprocessing works per pattern group, so only tests need this grouping.
"""

from __future__ import annotations

from repro.feti.operators import replay_for

__all__ = ["iter_clusters", "priced_replay"]


def priced_replay(operator, machine_config=None):
    """The replay of ``operator``'s approach on a fresh machine of
    ``machine_config`` (the operator's), after ``prepare()`` and
    ``preprocess()``: the machine state its first apply was priced on."""
    replay = replay_for(
        operator.approach,
        operator.problem,
        machine_config,
        operator.config,
        storage_dtype=operator.precision.storage_dtype,
    )
    replay.prepare()
    replay.preprocess()
    return replay


def iter_clusters(operator, machine):
    """Yield ``(resources, subdomains)`` for every cluster of ``machine``."""
    members: dict[int, list] = {}
    for sub in operator.problem.subdomains:
        members.setdefault(sub.cluster, []).append(sub)
    for cluster in machine.clusters:
        yield cluster, members.get(cluster.cluster_id, [])
