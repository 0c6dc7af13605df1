"""Unified observability: tracing, metrics, structured logging, telemetry.

- :mod:`repro.observe.trace` — span-based tracer with thread-pool-safe
  context propagation and Chrome trace-event export.
- :mod:`repro.observe.metrics` — central counter/gauge/histogram registry
  with Prometheus text exposition.
- :mod:`repro.observe.log` — structured (event + fields) logging.
- :mod:`repro.observe.convergence` — per-solve :class:`ConvergenceReport`.
"""

from repro.observe.convergence import ConvergenceReport
from repro.observe.log import StructuredLogger, configure_logging, get_logger
from repro.observe.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.observe.trace import (
    Span,
    Tracer,
    capture_context,
    current_tracer,
    global_tracer,
    run_with_context,
    trace,
    trace_event,
    trace_span,
    tracing_active,
)

__all__ = [
    "ConvergenceReport",
    "StructuredLogger",
    "configure_logging",
    "get_logger",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "capture_context",
    "current_tracer",
    "global_tracer",
    "run_with_context",
    "trace",
    "trace_event",
    "trace_span",
    "tracing_active",
]
