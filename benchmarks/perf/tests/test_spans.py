"""Self-time computation and the recorder's parent/operation bookkeeping."""

from __future__ import annotations

import pytest

from benchmarks.perf.spans import Span, SpanRecorder, covered, self_times


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        Span(0, "op", 0.0, 10.0, None, 0),
        Span(1, "a", 1.0, 4.0, 0, 0),
        Span(2, "b", 3.0, 6.0, 0, 0),  # overlaps "a" on [3, 4]
        Span(3, "c", 8.0, 12.0, 0, 0),  # sticks out of the parent: clipped to [8, 10]
        Span(4, "a.child", 1.5, 2.0, 1, 0),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - (5.0 + 2.0))
    assert selfs[1] == pytest.approx(3.0 - 0.5)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(0.5)


def test_self_times_of_a_nested_tree_sum_to_the_root_duration():
    spans = [
        Span(0, "op", 0.0, 1.0, None, 0),
        Span(1, "x", 0.1, 0.5, 0, 0),
        Span(2, "y", 0.2, 0.3, 1, 0),
        Span(3, "z", 0.6, 0.9, 0, 0),
    ]
    assert sum(self_times(spans).values()) == pytest.approx(1.0)


def test_covered_merges_overlaps_and_contained_intervals():
    assert covered([(0.0, 2.0), (1.0, 3.0), (1.5, 2.5), (5.0, 6.0)]) == pytest.approx(4.0)
    assert covered([]) == 0.0


def test_recorder_assigns_parents_and_operations():
    recorder = SpanRecorder()

    class Layer:
        def inner(self):
            return 1

        def outer(self):
            return self.inner() + 1

    layer = Layer()
    recorder.instrument(layer, {"inner": "layer.inner", "outer": "layer.outer"})
    layer.inner()  # before any operation: no root, no operation id
    recorder.begin_op(7)
    assert layer.outer() == 2
    recorder.begin_op(8)  # closes operation 7
    layer.inner()
    recorder.end_op()

    orphan, op7, outer, inner, op8, inner8 = recorder.spans
    assert (orphan.parent, orphan.op) == (None, None)
    assert (outer.parent, outer.op) == (op7.id, 7)
    assert (inner.parent, inner.op) == (outer.id, 7)
    assert (inner8.parent, inner8.op) == (op8.id, 8)
    assert op7.end == op8.start
    assert Layer().inner.__func__ is Layer.inner  # other instances are untouched
