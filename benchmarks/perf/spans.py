"""In-memory spans recorded from the harness's side of each layer boundary.

The traced pass wraps the *bound public methods* of the objects a
``Session`` hands out (``solver.preprocess``, ``operator.apply``,
``projector.apply``, ...) and then calls the real entry point, so the solve
sequence is never re-implemented here and no file under ``src/`` is touched.
Spans are kept in memory and written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import Any

__all__ = ["OP_SPAN", "Span", "SpanRecorder", "self_times", "covered"]

#: Name of the root span the harness opens around every operation.
OP_SPAN = "op"


@dataclass
class Span:
    """One timed call: ``parent`` is the id of the span that caused it."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records nested spans of single-threaded call sequences."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op: Span | None = None

    # -- operations ---------------------------------------------------- #
    def begin_op(self, op_id: int) -> None:
        """Close the current operation (if any) and open the next root span."""
        now = time.perf_counter()
        self.end_op(now)
        self._op = Span(len(self.spans), OP_SPAN, now, now, None, op_id)
        self.spans.append(self._op)

    def end_op(self, now: float | None = None) -> None:
        """Close the current operation's root span."""
        if self._op is not None:
            self._op.end = time.perf_counter() if now is None else now
            self._op = None

    # -- layer calls --------------------------------------------------- #
    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """A callable that records one span named ``name`` per call of ``fn``."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = self._stack[-1] if self._stack else self._op
            span = Span(
                len(self.spans),
                name,
                time.perf_counter(),
                0.0,
                None if parent is None else parent.id,
                None if self._op is None else self._op.op,
            )
            self.spans.append(span)
            self._stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return traced

    def instrument(self, obj: Any, methods: dict[str, str]) -> None:
        """Shadow ``obj``'s bound methods with traced ones (instance attributes).

        ``methods`` maps attribute name to span name.  Only this instance is
        affected; the class and every other instance stay untouched.
        """
        for attr, name in methods.items():
            setattr(obj, attr, self.wrap(name, getattr(obj, attr)))


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self time per span id: its duration minus the part its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so self times of a tree sum to the root's duration.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    by_id = {span.id: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is not None:
            lo, hi = max(span.start, parent.start), min(span.end, parent.end)
            if hi > lo:
                children[parent.id].append((lo, hi))
    return {span.id: span.duration - covered(children[span.id]) for span in spans}
