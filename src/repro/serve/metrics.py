"""Latency percentiles of the serve tier.

The serve tier's counters live in :class:`~repro.observe.metrics.
MetricsRegistry` instances (see :mod:`repro.observe.metrics`); what stays
here is the nearest-rank summary of a latency window, shared by
``GET /v1/metrics`` and the load generator's report.
"""

from __future__ import annotations

__all__ = ["latency_summary", "percentile"]


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty list."""
    if not sorted_values:
        raise ValueError("percentile of an empty window")
    rank = max(1, round(q / 100.0 * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def latency_summary(latencies: list[float]) -> dict[str, float]:
    """p50/p95/p99/mean/max of a latency window (``{}`` when empty)."""
    if not latencies:
        return {}
    window = sorted(latencies)
    return {
        "p50": percentile(window, 50),
        "p95": percentile(window, 95),
        "p99": percentile(window, 99),
        "mean": sum(window) / len(window),
        "max": window[-1],
    }
