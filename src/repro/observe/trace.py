"""Span-based tracing with thread-safe context propagation.

The tracer answers *where a solve spent its time*: every layer wraps its
phases in ``trace_span("factorize", subdomains=8)`` context managers, and a
finished trace exports to Chrome trace-event JSON (loadable in Perfetto /
``chrome://tracing``) or a plain nested JSON tree.

Design constraints, in order:

1. **Near-zero overhead when disabled.**  ``trace_span`` first reads one
   module-level integer; with no trace active it returns a stateless no-op
   singleton without touching the context, allocating, or reading the
   clock.  Hot loops (one span per PCPG iteration, one per dual-operator
   apply) stay within noise of the untraced build.
2. **Context propagation into worker threads.**  The current span lives
   in a :class:`contextvars.ContextVar`; worker threads do not inherit it,
   so whoever hands a task to a thread pool (a ``threads:n``
   preprocessing round) captures it at submission
   (:func:`capture_context`) and re-installs it around the task
   (:func:`run_with_context`), so worker spans nest under the submitting
   request's span.
3. **Independent of** :class:`~repro.api.spec.SolverSpec`.  Tracing is a
   process/context concern: enable it with the :func:`trace` context
   manager, or process-wide with the ``REPRO_TRACE`` environment variable
   (``REPRO_TRACE=1`` collects in memory, ``REPRO_TRACE=out.json`` also
   writes the Chrome trace at interpreter exit).
"""

from __future__ import annotations

import atexit
import contextvars
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "Span",
    "Tracer",
    "trace",
    "trace_span",
    "trace_event",
    "tracing_active",
    "capture_context",
    "run_with_context",
    "current_tracer",
    "global_tracer",
]


@dataclass
class Span:
    """One timed region: name, nesting, wall window and free-form attrs."""

    name: str
    span_id: int
    parent_id: int | None
    #: Epoch microseconds (``time.time()`` based).
    start_us: float
    duration_us: float = 0.0
    pid: int = 0
    tid: int = 0
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON form (used by the tree export)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_us": self.start_us,
            "duration_us": self.duration_us,
            "pid": self.pid,
            "tid": self.tid,
            "attrs": dict(self.attrs),
        }


@dataclass
class SpanEvent:
    """An instant event attached to a span (e.g. one iteration's residual)."""

    name: str
    span_id: int | None
    ts_us: float
    pid: int = 0
    tid: int = 0
    attrs: dict[str, Any] = field(default_factory=dict)


#: ``(tracer, current_span_id)`` of the active trace in this context.
_STATE: contextvars.ContextVar[tuple["Tracer", int | None] | None] = contextvars.ContextVar(
    "repro_trace_state", default=None
)

#: Number of live traces process-wide — the disabled-path fast flag.
_ACTIVE = 0
_ACTIVE_LOCK = threading.Lock()

#: Fallback state installed by ``REPRO_TRACE`` (reaches threads that never
#: had the context var propagated, e.g. a server's accept loop).
_GLOBAL_STATE: tuple["Tracer", int | None] | None = None


def _activate() -> None:
    global _ACTIVE
    with _ACTIVE_LOCK:
        _ACTIVE += 1


def _deactivate() -> None:
    global _ACTIVE
    with _ACTIVE_LOCK:
        _ACTIVE -= 1


class Tracer:
    """A collection of spans belonging to one trace (thread-safe)."""

    def __init__(self, name: str = "trace") -> None:
        self.name = name
        self.spans: list[Span] = []
        self.events: list[SpanEvent] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------ #
    # Recording                                                           #
    # ------------------------------------------------------------------ #
    def next_id(self) -> int:
        """A fresh span id (atomic)."""
        return next(self._ids)

    def record(self, span: Span) -> None:
        """Append one finished span."""
        with self._lock:
            self.spans.append(span)

    def record_event(self, event: SpanEvent) -> None:
        """Append one instant event."""
        with self._lock:
            self.events.append(event)

    # ------------------------------------------------------------------ #
    # Export                                                              #
    # ------------------------------------------------------------------ #
    def chrome_events(self) -> list[dict[str, Any]]:
        """Chrome trace-event list: complete (``X``) spans + instant events."""
        with self._lock:
            spans = list(self.spans)
            events = list(self.events)
        out: list[dict[str, Any]] = []
        for span in spans:
            out.append(
                {
                    "name": span.name,
                    "cat": "repro",
                    "ph": "X",
                    "ts": span.start_us,
                    "dur": span.duration_us,
                    "pid": span.pid,
                    "tid": span.tid,
                    "args": dict(span.attrs),
                }
            )
        for event in events:
            out.append(
                {
                    "name": event.name,
                    "cat": "repro",
                    "ph": "i",
                    "ts": event.ts_us,
                    "s": "t",
                    "pid": event.pid,
                    "tid": event.tid,
                    "args": dict(event.attrs),
                }
            )
        return out

    def to_chrome(self) -> dict[str, Any]:
        """The Chrome trace-event JSON object format (Perfetto-loadable)."""
        return {
            "traceEvents": sorted(self.chrome_events(), key=lambda e: e["ts"]),
            "displayTimeUnit": "ms",
            "otherData": {"trace": self.name},
        }

    def to_tree(self) -> list[dict[str, Any]]:
        """Nested span tree (roots sorted by start time).

        Spans whose parent was never recorded (e.g. the parent is still
        open when the export runs) surface as roots rather than being
        dropped.
        """
        with self._lock:
            spans = list(self.spans)
            events = list(self.events)
        nodes = {span.span_id: {**span.to_dict(), "events": [], "children": []} for span in spans}
        for event in events:
            node = nodes.get(event.span_id or -1)
            if node is not None:
                node["events"].append(
                    {"name": event.name, "ts_us": event.ts_us, "attrs": dict(event.attrs)}
                )
        roots: list[dict[str, Any]] = []
        for span in spans:
            node = nodes[span.span_id]
            parent = nodes.get(span.parent_id) if span.parent_id is not None else None
            (roots if parent is None else parent["children"]).append(node)
        for node in nodes.values():
            node["children"].sort(key=lambda n: n["start_us"])
            node["events"].sort(key=lambda e: e["ts_us"])
        roots.sort(key=lambda n: n["start_us"])
        return roots

    def write_chrome(self, path: str | os.PathLike) -> None:
        """Write :meth:`to_chrome` as JSON (parent directories must exist)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome(), handle)

    def find(self, name: str) -> list[Span]:
        """All recorded spans with a given name (test/debug helper)."""
        with self._lock:
            return [s for s in self.spans if s.name == name]

    def __len__(self) -> int:
        with self._lock:
            return len(self.spans)


# --------------------------------------------------------------------- #
# Span context managers                                                  #
# --------------------------------------------------------------------- #
class _NoopSpan:
    """Reusable, stateless no-op context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: Any) -> bool:
        return False


_NOOP = _NoopSpan()


class _SpanContext:
    """Context manager recording one span into a tracer."""

    __slots__ = ("_tracer", "_span", "_token", "_t0")

    def __init__(
        self, tracer: Tracer, name: str, parent_id: int | None, attrs: dict[str, Any]
    ) -> None:
        self._tracer = tracer
        self._span = Span(
            name=name,
            span_id=tracer.next_id(),
            parent_id=parent_id,
            start_us=time.time() * 1e6,
            pid=os.getpid(),
            tid=threading.get_ident(),
            attrs=attrs,
        )

    def __enter__(self) -> Span:
        self._token = _STATE.set((self._tracer, self._span.span_id))
        self._t0 = time.perf_counter()
        return self._span

    def __exit__(self, *exc_info: Any) -> bool:
        self._span.duration_us = (time.perf_counter() - self._t0) * 1e6
        _STATE.reset(self._token)
        self._tracer.record(self._span)
        return False


def _state() -> tuple[Tracer, int | None] | None:
    state = _STATE.get()
    if state is not None:
        return state
    return _GLOBAL_STATE


def trace_span(name: str, **attrs: Any):
    """A context manager timing one region of the active trace.

    With no trace active (the default) this returns a shared no-op and
    costs one integer check — safe to leave in the hottest loops.  The
    managed value is the :class:`Span` (or ``None`` when disabled), so
    callers may attach attrs discovered mid-region::

        with trace_span("factorize", subdomain=i) as span:
            ...
            if span is not None:
                span.attrs["fill_in"] = fill
    """
    if not _ACTIVE:
        return _NOOP
    state = _state()
    if state is None:
        return _NOOP
    tracer, parent_id = state
    return _SpanContext(tracer, name, parent_id, attrs)


def trace_event(name: str, **attrs: Any) -> None:
    """Record an instant event on the current span (no-op when disabled)."""
    if not _ACTIVE:
        return
    state = _state()
    if state is None:
        return
    tracer, parent_id = state
    tracer.record_event(
        SpanEvent(
            name=name,
            span_id=parent_id,
            ts_us=time.time() * 1e6,
            pid=os.getpid(),
            tid=threading.get_ident(),
            attrs=attrs,
        )
    )


def tracing_active() -> bool:
    """Whether a trace is live in this context (or process-wide)."""
    return bool(_ACTIVE) and _state() is not None


def current_tracer() -> Tracer | None:
    """The tracer of the active trace in this context (``None`` when off)."""
    state = _state() if _ACTIVE else None
    return state[0] if state is not None else None


class _TraceHandle:
    """Context manager owning one live trace."""

    def __init__(self, name: str) -> None:
        self.tracer = Tracer(name)
        self._token: contextvars.Token | None = None

    def __enter__(self) -> Tracer:
        self._token = _STATE.set((self.tracer, None))
        _activate()
        return self.tracer

    def __exit__(self, *exc_info: Any) -> bool:
        _deactivate()
        if self._token is not None:
            _STATE.reset(self._token)
        return False


def trace(name: str = "trace") -> _TraceHandle:
    """Start a trace for the enclosed region and yield its :class:`Tracer`.

    .. code-block:: python

        from repro.observe import trace

        with trace("solve") as tracer:
            session.solve("heat-2d-quick")
        tracer.write_chrome("solve-trace.json")
    """
    return _TraceHandle(name)


# --------------------------------------------------------------------- #
# Propagation into worker threads                                        #
# --------------------------------------------------------------------- #
def capture_context() -> tuple[Tracer, int | None] | None:
    """The submitting context's trace state (``None`` when tracing is off).

    A task handed to a thread pool runs under it via :func:`run_with_context`.
    """
    if not _ACTIVE:
        return None
    return _state()


def run_with_context(
    state: tuple[Tracer, int | None], fn, /, *args: Any, **kwargs: Any
) -> Any:
    """Run ``fn`` with the captured trace state installed (worker threads)."""
    token = _STATE.set(state)
    try:
        return fn(*args, **kwargs)
    finally:
        _STATE.reset(token)


# --------------------------------------------------------------------- #
# REPRO_TRACE: process-wide tracing from the environment                 #
# --------------------------------------------------------------------- #
_GLOBAL_TRACER: Tracer | None = None


def global_tracer() -> Tracer | None:
    """The process-wide tracer installed by ``REPRO_TRACE`` (or ``None``)."""
    return _GLOBAL_TRACER


def _bootstrap_from_env() -> None:
    value = os.environ.get("REPRO_TRACE", "").strip()
    if not value or value == "0":
        return
    global _GLOBAL_STATE, _GLOBAL_TRACER
    _GLOBAL_TRACER = Tracer("repro")
    _GLOBAL_STATE = (_GLOBAL_TRACER, None)
    _activate()
    if value not in ("1", "true", "yes", "on"):
        # A path-like value additionally dumps the Chrome trace at exit.
        tracer = _GLOBAL_TRACER

        @atexit.register
        def _dump_global_trace() -> None:  # pragma: no cover - exit hook
            try:
                tracer.write_chrome(value)
            except OSError:
                pass


_bootstrap_from_env()
