"""The span tracer: recording, nesting, export formats and the disabled path."""

import json

import pytest

from repro.observe.trace import (
    capture_context,
    current_tracer,
    trace,
    trace_event,
    trace_span,
    tracing_active,
)


def test_disabled_tracer_records_nothing():
    assert not tracing_active()
    span = trace_span("never", anything=1)
    with span as inner:
        assert inner is None
        trace_event("also-never", x=2)
    assert current_tracer() is None
    assert capture_context() is None


def test_disabled_span_context_is_reentrant_singleton():
    a = trace_span("a")
    b = trace_span("b")
    assert a is b  # the stateless no-op singleton
    with a:
        with b:
            pass


def test_trace_records_spans_and_restores_state():
    with trace("unit") as tracer:
        assert tracing_active()
        with trace_span("outer", layer="api"):
            with trace_span("inner", k=1):
                trace_event("tick", n=3)
    assert not tracing_active()
    assert len(tracer) == 2
    names = {s.name for s in tracer.spans}
    assert names == {"outer", "inner"}


def test_span_nesting_parents():
    with trace() as tracer:
        with trace_span("root"):
            with trace_span("child"):
                with trace_span("grandchild"):
                    pass
            with trace_span("sibling"):
                pass
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["root"].parent_id is None
    assert by_name["child"].parent_id == by_name["root"].span_id
    assert by_name["sibling"].parent_id == by_name["root"].span_id
    assert by_name["grandchild"].parent_id == by_name["child"].span_id


def test_span_attrs_and_durations():
    with trace() as tracer:
        with trace_span("work", subdomain=4, mode="dense"):
            pass
    (span,) = tracer.spans
    assert span.attrs == {"subdomain": 4, "mode": "dense"}
    assert span.duration_us >= 0.0
    assert span.start_us > 0.0


def test_tree_round_trip():
    with trace() as tracer:
        with trace_span("solve"):
            with trace_span("factorize", subdomain=0):
                pass
            with trace_span("pcpg"):
                trace_event("residual", iteration=1, norm=0.5)
    tree = tracer.to_tree()
    assert len(tree) == 1
    root = tree[0]
    assert root["name"] == "solve"
    children = [c["name"] for c in root["children"]]
    assert children == ["factorize", "pcpg"]
    pcpg = root["children"][1]
    assert pcpg["events"][0]["name"] == "residual"
    assert pcpg["events"][0]["attrs"] == {"iteration": 1, "norm": 0.5}
    # the tree must be JSON-serializable as-is
    json.dumps(tree)


def test_chrome_export_fields():
    with trace() as tracer:
        with trace_span("outer"):
            with trace_span("inner", k=2):
                trace_event("mark", v=1)
    doc = tracer.to_chrome()
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    assert {e["name"] for e in complete} == {"outer", "inner"}
    for event in complete:
        assert isinstance(event["ts"], float)
        assert isinstance(event["dur"], float)
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
    inner = next(e for e in complete if e["name"] == "inner")
    assert inner["args"] == {"k": 2}
    (mark,) = instants
    assert mark["s"] == "t"
    # events are sorted by timestamp for direct chrome://tracing loading
    stamps = [e["ts"] for e in events]
    assert stamps == sorted(stamps)
    json.dumps(doc)


def test_write_chrome(tmp_path):
    with trace() as tracer:
        with trace_span("io"):
            pass
    path = tmp_path / "trace.json"
    tracer.write_chrome(path)
    doc = json.loads(path.read_text())
    assert doc["traceEvents"][0]["name"] == "io"


def test_find_and_len():
    with trace() as tracer:
        for _ in range(3):
            with trace_span("repeat"):
                pass
        with trace_span("other"):
            pass
    assert len(tracer) == 4
    assert len(tracer.find("repeat")) == 3
    assert tracer.find("missing") == []


def test_exception_still_records_span():
    with trace() as tracer:
        with pytest.raises(RuntimeError):
            with trace_span("exploding"):
                raise RuntimeError("boom")
    assert len(tracer.find("exploding")) == 1
    assert not tracing_active()


def test_nested_trace_contexts_are_independent():
    with trace("outer-trace") as outer:
        with trace_span("before"):
            pass
        with trace("inner-trace") as inner:
            with trace_span("inner-only"):
                pass
        with trace_span("after"):
            pass
    assert {s.name for s in outer.spans} == {"before", "after"}
    assert {s.name for s in inner.spans} == {"inner-only"}
