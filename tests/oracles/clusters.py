"""Test oracle: an operator's subdomains, cluster by cluster.

The per-cluster loops of the oracles and the tests that inspect one
cluster's simulated device read the subdomains of every cluster beside its
:class:`~repro.cluster.topology.ClusterResources`.  The numeric
preprocessing works per pattern group, so only tests need this grouping.
"""

from __future__ import annotations

__all__ = ["iter_clusters"]


def iter_clusters(operator):
    """Yield ``(resources, subdomains)`` for every cluster of the operator's machine."""
    members: dict[int, list] = {}
    for sub in operator.problem.subdomains:
        members.setdefault(sub.cluster, []).append(sub)
    for cluster in operator.machine.clusters:
        yield cluster, members.get(cluster.cluster_id, [])
