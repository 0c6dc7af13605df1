"""Order statistics and failure accounting of the wall-clock benchmark.

Pure functions (stdlib only) so the rules the metrics are defined by can be
unit-tested without running a solve.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence
from dataclasses import dataclass

__all__ = [
    "PERCENTILE_LADDER",
    "MIN_SAMPLES_BEYOND",
    "OpResult",
    "Accounting",
    "account",
    "drift",
    "median",
    "percentile",
    "tail_percentile",
]

#: Candidate tail percentiles, lowest first.
PERCENTILE_LADDER = (50.0, 66.0, 75.0, 90.0, 99.0, 99.9)
#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Percentile ``q`` (0-100) of a non-empty sample, linearly interpolated.

    The same definition as :func:`median` at ``q=50``, so a tail that falls
    back to p50 (n=20) reads exactly the median and never below it.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    position = q / 100.0 * (len(ordered) - 1)
    below = math.floor(position)
    above = min(below + 1, len(ordered) - 1)
    return float(ordered[below] + (position - below) * (ordered[above] - ordered[below]))


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with >= 10 of ``n`` samples beyond it.

    p50 at n=20, p66 at n=30, p75 at n=40, p90 at n=240.  Below 20 samples no
    percentile qualifies and the median is returned as the least bad answer.
    """
    best = PERCENTILE_LADDER[0]
    for q in PERCENTILE_LADDER:
        # The tiny slack absorbs the rounding of e.g. 40 * (1 - 0.75).
        if n * (100.0 - q) / 100.0 + 1e-9 >= MIN_SAMPLES_BEYOND:
            best = q
    return best


def drift(values: Sequence[float]) -> float:
    """Median of the last third of a series over the median of the first third."""
    third = max(1, len(values) // 3)
    return median(values[-third:]) / median(values[:third])


@dataclass(frozen=True)
class OpResult:
    """Outcome of one attempted operation.

    ``seconds`` is plain wall.  ``status`` is the HTTP status of a served
    request (``None`` for an in-process solve; 0 for a refused or timed-out
    connection).  ``slowdown`` is the machine slowdown read beside the
    operation (:mod:`benchmarks.perf.gauge`).
    """

    seconds: float
    converged: bool
    checked: bool
    status: int | None = None
    iterations: int = 0
    slowdown: float = 1.0

    @property
    def at_reference(self) -> float:
        """The wall of the operation at reference speed."""
        return self.seconds / self.slowdown

    @property
    def passed(self) -> bool:
        """Completed, converged, passed its check and (if served) got a 200."""
        return self.converged and self.checked and self.status in (None, 200)


@dataclass(frozen=True)
class Accounting:
    """Counts of one measured window."""

    attempted: int
    failed: int
    window_seconds: float

    @property
    def passed(self) -> int:
        return self.attempted - self.failed

    @property
    def failed_ops_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def ops_per_s(self) -> float:
        """Operations that completed *and passed*, per second of the window."""
        return self.passed / self.window_seconds if self.window_seconds > 0 else 0.0


def account(ops: Sequence[OpResult], window_seconds: float) -> Accounting:
    """Failure accounting: a non-converged solve, a failed check and any
    non-200 reply (429, 504, refused, timed out) each count as one failure."""
    failed = sum(1 for op in ops if not op.passed)
    return Accounting(attempted=len(ops), failed=failed, window_seconds=window_seconds)
