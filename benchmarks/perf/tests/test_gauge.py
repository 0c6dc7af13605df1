"""Reference-speed rescaling: which readings an interval is rescaled by."""

from __future__ import annotations

import time

import pytest

from benchmarks.perf.gauge import REFERENCE_KERNEL_S, SpeedGauge, Stopwatch, Timed


class _ScriptedGauge:
    """Stands in for the gauge: its readings are scripted slowdowns."""

    def __init__(self, *slowdowns: float) -> None:
        self._script = list(slowdowns)
        self.reads = 0

    def read(self) -> float:
        self.reads += 1
        return self._script.pop(0)


def test_interval_is_rescaled_by_the_mean_of_the_readings_beside_it():
    watch = Stopwatch(_ScriptedGauge(1.0, 3.0))
    timed = watch.stop()
    assert timed.slowdown == pytest.approx(2.0)
    assert timed.at_reference == pytest.approx(timed.seconds / 2.0)


def test_consecutive_intervals_share_the_reading_between_them():
    gauge = _ScriptedGauge(1.0, 3.0, 5.0)
    watch = Stopwatch(gauge)
    first = watch.stop()
    watch.start()
    second = watch.stop()
    assert (first.slowdown, second.slowdown) == (pytest.approx(2.0), pytest.approx(4.0))
    assert gauge.reads == 3


def test_the_gauge_is_read_outside_the_timed_interval():
    class _SlowGauge(_ScriptedGauge):
        def read(self) -> float:
            time.sleep(0.05)
            return super().read()

    watch = Stopwatch(_SlowGauge(1.0, 1.0, 1.0))
    assert watch.stop().seconds < 0.04
    assert watch.stop().seconds < 0.04  # the next interval opens after the reading


def test_at_reference_on_a_quiet_box_is_the_wall_itself():
    assert Timed(0.3, 1.0).at_reference == 0.3
    assert Timed(0.3, 1.5).at_reference == pytest.approx(0.2)


def test_read_times_the_kernel_and_records_its_seconds():
    gauge = SpeedGauge()
    slowdown = gauge.read()
    (seconds,) = gauge.kernel_seconds
    assert seconds > 0
    assert slowdown == pytest.approx(seconds / REFERENCE_KERNEL_S)
