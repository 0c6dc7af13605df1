"""Analysis and benchmark-harness helpers.

Timing ledger for simulated/wall time, virtual-thread clocks for the
parallel subdomain loops, the parameter-sweep records used by the Table II
auto-tuning experiment, amortization/speedup analytics behind Figures 6 and
7, and plain-text rendering of the tables and figure series the benchmarks
regenerate.
"""

from repro.analysis.timing import PhaseTiming, ThreadClocks, TimingLedger
from repro.analysis.amortization import (
    AmortizationCurve,
    amortization_point,
    best_approach_curve,
    speedup_curve,
    total_time,
)
from repro.analysis.reporting import format_table, format_series
from repro.analysis.sweep import SweepResult

__all__ = [
    "PhaseTiming",
    "ThreadClocks",
    "TimingLedger",
    "AmortizationCurve",
    "amortization_point",
    "best_approach_curve",
    "speedup_curve",
    "total_time",
    "format_table",
    "format_series",
    "SweepResult",
]
