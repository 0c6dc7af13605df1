"""The percentile rule and the failure-share accounting."""

from __future__ import annotations

import pytest

from benchmarks.perf.stats import (
    OpResult,
    account,
    drift,
    median,
    percentile,
    tail_percentile,
)


@pytest.mark.parametrize(
    ("n", "expected"), [(20, 50.0), (30, 66.0), (40, 75.0), (240, 90.0), (1000, 99.0)]
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    q = tail_percentile(n)
    assert q == expected
    samples = list(range(1, n + 1))
    beyond = sum(1 for s in samples if s > percentile(samples, q))
    assert beyond >= 10


def test_percentile_interpolates_and_agrees_with_the_median():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(samples, 50) == median(samples) == 3.0
    assert percentile(samples, 100) == 5.0
    assert percentile(samples, 0) == 1.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == median([1.0, 2.0, 3.0, 4.0]) == 2.5
    assert percentile([0.0, 10.0], 75) == 7.5
    with pytest.raises(ValueError):
        percentile([], 50)


def test_drift_is_last_third_over_first_third():
    assert drift([1.0, 1.0, 1.0, 5.0, 5.0, 5.0, 2.0, 2.0, 2.0]) == 2.0


def test_non_converged_solve_counts_as_failed():
    ops = [OpResult(0.1, converged=True, checked=True)] * 9
    ops.append(OpResult(0.1, converged=False, checked=True))
    acc = account(ops, window_seconds=2.0)
    assert (acc.attempted, acc.failed) == (10, 1)
    assert acc.failed_ops_share == 0.1
    # Only operations that completed and passed count towards throughput.
    assert acc.ops_per_s == 4.5


def test_failed_oracle_check_counts_as_failed():
    acc = account([OpResult(0.1, converged=True, checked=False)], window_seconds=1.0)
    assert acc.failed_ops_share == 1.0
    assert acc.ops_per_s == 0.0


@pytest.mark.parametrize("status", [429, 504, 0])
def test_rejected_timed_out_and_refused_replies_count_as_failed(status):
    ok = OpResult(0.05, converged=True, checked=True, status=200)
    # A 429/504 body carries no result, so the harness never marks it converged.
    bad = OpResult(0.05, converged=False, checked=False, status=status)
    acc = account([ok, ok, ok, bad], window_seconds=1.0)
    assert acc.failed == 1
    assert acc.failed_ops_share == 0.25
    assert acc.ops_per_s == 3.0
    # Even a well-formed body does not rescue a non-200 status.
    assert not OpResult(0.05, converged=True, checked=True, status=status).passed
