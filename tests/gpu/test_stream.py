"""Tests of the discrete-event streams and events."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.stream import Stream


def test_fifo_ordering_within_a_stream():
    stream = Stream(keep_log=True)
    first = stream.submit("a", duration=2.0, submit_time=0.0)
    second = stream.submit("b", duration=1.0, submit_time=0.0)
    assert first.start_time == 0.0 and first.end_time == 2.0
    assert second.start_time == 2.0 and second.end_time == 3.0
    assert [op.name for op in stream.operations] == ["a", "b"]


def test_submission_after_cpu_time():
    stream = Stream()
    op = stream.submit("late", duration=1.0, submit_time=5.0)
    assert op.start_time == 5.0
    assert stream.tail == 6.0
    assert op.duration == 1.0


def test_streams_run_concurrently():
    s0, s1 = Stream(index=0), Stream(index=1)
    a = s0.submit("k0", duration=3.0, submit_time=0.0)
    b = s1.submit("k1", duration=2.0, submit_time=0.0)
    # both kernels start at time zero: the streams are independent
    assert a.start_time == 0.0 and b.start_time == 0.0
    assert max(s0.tail, s1.tail) == 3.0


def test_cpu_gpu_overlap_pattern():
    """CPU work for subdomain i+1 overlaps the GPU kernel of subdomain i."""
    stream = Stream()
    cpu_time = 0.0
    ends = []
    for _ in range(3):
        cpu_time += 1.0  # one unit of CPU factorization
        op = stream.submit("assemble", duration=2.0, submit_time=cpu_time)
        ends.append(op.end_time)
    # With overlap the total is cpu(1) + 3 kernels = 7, not 3*(1+2) = 9.
    assert ends[-1] == pytest.approx(7.0)


def test_wait_for():
    s0, s1 = Stream(index=0), Stream(index=1)
    op = s0.submit("producer", duration=4.0, submit_time=0.0)
    s1.wait_for(s0.tail)
    consumer = s1.submit("consumer", duration=1.0, submit_time=0.0)
    assert consumer.start_time == 4.0
    assert op.duration == 4.0


def test_reset():
    stream = Stream(keep_log=True)
    stream.submit("k", duration=2.5, submit_time=1.0)
    assert stream.tail == 3.5
    stream.reset()
    assert stream.tail == 0.0
    assert stream.operations == []


def test_negative_duration_rejected():
    with pytest.raises(ValueError):
        Stream().submit("bad", duration=-1.0, submit_time=0.0)


@settings(max_examples=40, deadline=None)
@given(
    durations=st.lists(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False), min_size=1, max_size=20
    ),
    submits=st.lists(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False), min_size=1, max_size=20
    ),
)
def test_property_stream_tail_is_monotone_and_conservative(durations, submits):
    """Property: the tail never decreases and is at least the sum-free lower bound."""
    stream = Stream()
    previous_tail = 0.0
    for duration, submit in zip(durations, submits):
        op = stream.submit("k", duration=duration, submit_time=submit)
        assert op.start_time >= submit
        assert op.start_time >= previous_tail
        assert stream.tail == op.end_time >= previous_tail
        previous_tail = stream.tail
    assert stream.tail >= max(
        d for d, _ in zip(durations, submits)
    ) if durations else True
