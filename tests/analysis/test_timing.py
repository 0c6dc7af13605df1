"""Tests of the timing ledger and the virtual thread clocks."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.timing import PhaseTiming, ThreadClocks, TimingLedger


def test_thread_clocks_round_robin_and_elapsed():
    clocks = ThreadClocks(2)
    assert clocks.thread_of(0) == 0
    assert clocks.thread_of(3) == 1
    clocks.advance(0, 1.0)
    clocks.advance(1, 3.0)
    clocks.advance(2, 2.0)  # thread 0 again
    assert clocks.now(0) == pytest.approx(3.0)
    assert clocks.now(1) == pytest.approx(3.0)
    assert clocks.elapsed == pytest.approx(3.0)
    assert clocks.max_time == pytest.approx(3.0)


def test_thread_clocks_origin_and_validation():
    clocks = ThreadClocks(1, origin=10.0)
    clocks.advance(0, 2.0)
    assert clocks.elapsed == pytest.approx(2.0)
    assert clocks.now(0) == pytest.approx(12.0)
    with pytest.raises(ValueError):
        clocks.advance(0, -1.0)
    with pytest.raises(ValueError):
        ThreadClocks(0)


@settings(max_examples=30, deadline=None)
@given(
    n_threads=st.integers(min_value=1, max_value=8),
    durations=st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=40),
)
def test_property_parallel_loop_bounds(n_threads, durations):
    """Property: max/n_threads ≤ elapsed ≤ serial sum, and ≥ longest item."""
    clocks = ThreadClocks(n_threads)
    for i, duration in enumerate(durations):
        clocks.advance(i, duration)
    total = sum(durations)
    assert clocks.elapsed <= total + 1e-9
    assert clocks.elapsed >= total / n_threads - 1e-9
    assert clocks.elapsed >= max(durations) - 1e-9


def test_phase_timing_breakdown_accumulation():
    phase = PhaseTiming(name="apply", simulated_seconds=1.0)
    phase.add("gemv", 0.25)
    phase.add("gemv", 0.25)
    phase.add("transfer", 0.1)
    assert phase.breakdown == {"gemv": 0.5, "transfer": 0.1}


def test_ledger_totals_means_and_last():
    ledger = TimingLedger()
    ledger.record(PhaseTiming("apply", 1.0))
    ledger.record(PhaseTiming("apply", 3.0))
    ledger.record(PhaseTiming("preprocessing", 10.0))
    assert ledger.total("apply") == pytest.approx(4.0)
    assert ledger.mean("apply") == pytest.approx(2.0)
    assert ledger.count("apply") == 2
    assert ledger.last("apply").simulated_seconds == 3.0
    assert ledger.last("preparation") is None
    assert ledger.mean("preparation") == 0.0
    # Per-iteration phases are folded into the aggregates, never retained.
    assert [p.name for p in ledger.phases] == ["preprocessing"]


def test_ledger_mark_sums_left_to_right_from_zero():
    """``since_mark`` is the sum a slice of the record used to give, bit for bit
    (which ``total()`` after minus ``total()`` before is not)."""
    values = [0.1, 0.2, 0.3, 0.7]
    ledger = TimingLedger()
    ledger.record(PhaseTiming("apply", 1e6))
    ledger.mark("apply", "apply_multi")
    for i, value in enumerate(values):
        ledger.record(PhaseTiming("apply" if i % 2 else "apply_multi", value))
        ledger.record(PhaseTiming("preprocessing", 5.0))
    expected = 0.0
    for value in values:
        expected += value
    assert ledger.since_mark() == expected
    assert ledger.since_mark() != ledger.total("apply") - 1e6 + ledger.total("apply_multi")
    ledger.mark("apply")
    assert ledger.since_mark() == 0.0
    ledger.record(PhaseTiming("apply_multi", 2.0))
    assert ledger.since_mark() == 0.0


@settings(max_examples=40, deadline=None)
@given(
    n_threads=st.integers(min_value=1, max_value=8),
    start_index=st.integers(min_value=0, max_value=7),
    costs=st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=0, max_size=40),
)
def test_advance_many_matches_per_item_loop(n_threads, start_index, costs):
    """The vectorized advancement is equivalent to the per-item loop."""
    looped = ThreadClocks(n_threads, origin=1.5)
    for i, cost in enumerate(costs):
        looped.advance(start_index + i, cost)
    batched = ThreadClocks(n_threads, origin=1.5)
    batched.advance_many(costs, start_index=start_index)
    for t in range(n_threads):
        assert batched.clocks[t] == pytest.approx(looped.clocks[t], rel=1e-12)
    assert batched.elapsed == pytest.approx(looped.elapsed, rel=1e-12)


def test_advance_many_rejects_negative_costs():
    clocks = ThreadClocks(2)
    with pytest.raises(ValueError):
        clocks.advance_many([1.0, -0.5])
