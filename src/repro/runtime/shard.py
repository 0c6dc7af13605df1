"""Shard planning: partition subdomains across workers by cluster topology.

A *shard* is the unit of work one runtime worker executes: a contiguous
slice of one cluster's subdomain list.  Shards never span clusters — a
cluster models one MPI process in the paper, so its subdomains share
per-cluster resources (:class:`~repro.cluster.topology.ClusterResources`)
and must stay together for the simulated-time bookkeeping to be meaningful.

Every executor plans shards — the serial one has one worker, so one shard
per cluster.  Within a shard the preprocessing factors the subdomains that
share a symbolic analysis as one stack, then assembles each local dual
operator on its own (see :mod:`repro.runtime.preprocess`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = ["Shard", "ShardPlan", "balanced_spans"]


@dataclass(frozen=True)
class Shard:
    """One worker's slice of one cluster's subdomains."""

    shard_id: int
    cluster_id: int
    #: Global ``SubdomainProblem.index`` values of the shard's subdomains.
    subdomain_indices: tuple[int, ...]

    @property
    def size(self) -> int:
        """Subdomains in the shard."""
        return len(self.subdomain_indices)


def balanced_spans(n: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into ``min(parts, n)`` contiguous near-equal spans.

    The common span decomposition of the runtime: shard planning uses it for
    subdomain slices, the apply-phase sharding for block-pack chunks.
    """
    parts = max(1, min(parts, n))
    base, extra = divmod(n, parts)
    spans = []
    start = 0
    for p in range(parts):
        size = base + (1 if p < extra else 0)
        spans.append((start, start + size))
        start += size
    return spans


class ShardPlan:
    """The shard decomposition of a problem for a given worker count."""

    def __init__(self, shards: Sequence[Shard], workers: int) -> None:
        self.shards = list(shards)
        self.workers = int(workers)

    @classmethod
    def for_clusters(
        cls,
        clusters: Sequence[tuple[int, Sequence[int]]],
        workers: int,
    ) -> "ShardPlan":
        """Plan shards over ``(cluster_id, subdomain_indices)`` groups.

        Every cluster is split into up to ``workers`` contiguous shards, so
        with ``c`` clusters the plan dispatches up to ``c * workers``
        futures and each worker's queue interleaves clusters — clusters
        overlap instead of running back-to-back.
        """
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        shards: list[Shard] = []
        for cluster_id, indices in clusters:
            for lo, hi in balanced_spans(len(indices), workers):
                if hi == lo:
                    continue
                shards.append(
                    Shard(
                        shard_id=len(shards),
                        cluster_id=int(cluster_id),
                        subdomain_indices=tuple(int(i) for i in indices[lo:hi]),
                    )
                )
        return cls(shards, workers)

    def describe(self) -> str:
        """Human-readable shard layout (for logs and the example script)."""
        per_cluster: dict[int, list[int]] = {}
        for s in self.shards:
            per_cluster.setdefault(s.cluster_id, []).append(s.size)
        layout = ", ".join(
            f"cluster {c}: {sizes}" for c, sizes in sorted(per_cluster.items())
        )
        return f"{len(self.shards)} shard(s) over {self.workers} worker(s) ({layout})"
