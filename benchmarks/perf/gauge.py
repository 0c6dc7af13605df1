"""Machine-speed gauge: how slow the box was while an interval was timed.

The benchmark runs on a small shared box that flips, from one second to the
next and for minutes at a time, between two speeds about 1.5x apart (a
neighbour on the same host core; no steal time shows).  Plain wall times of
*one commit* then spread by 25-40% over ten runs: more than the widest bound a
metric may have and more than any change a later issue could claim.

So the harness times every interval in plain wall seconds and reads a fixed
reference kernel right before and right after it, never inside it:

    slowdown     = mean of the two readings / REFERENCE_KERNEL_S
    at reference = wall / slowdown

Both numbers are reported: the value *at reference speed* is the metric of
record (steady enough to gate on), the wall it came from is printed beside it
and kept in the result document.  On a quiet box the slowdown is 1 and the
two are the same number.

An interval is one operation, or one block of back-to-back served requests:
about half a second, the longest stretch over which two readings still tell
what the box did in between (README, "Reference speed").

The kernel is numpy/scipy only and shares no code with ``repro``, so an
optimisation of the program cannot move it.  A numpy or BLAS upgrade can,
which is why every run stamps the kernel seconds it read.  Its mix
(interpreter-bound small numpy calls, a dense product, sparse products, a
memory stream) is what the operations of record spend their time on.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = ["REFERENCE_KERNEL_S", "SpeedGauge", "Stopwatch", "Timed"]

#: Wall seconds of one kernel run on the quiet 2-core reference box.  A
#: constant, never re-measured: it only fixes the unit of the scale.
REFERENCE_KERNEL_S = 0.0049
#: Timed kernel runs behind one reading (their median).  One run is a 5 ms
#: timing and reads up to 20% off on its own.
RUNS_PER_READING = 3


@dataclass
class Timed:
    """One timed interval: its wall seconds and the slowdown beside it."""

    seconds: float
    slowdown: float

    @property
    def at_reference(self) -> float:
        """The wall of the interval at reference speed."""
        return self.seconds / self.slowdown


class SpeedGauge:
    """Reads the reference kernel between timed intervals."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._matrix = rng.random((64, 64))
        self._vector = rng.random(64)
        self._index = rng.permutation(64)
        self._dense = rng.random((160, 160))
        self._sparse = sp.random(2000, 2000, density=0.005, random_state=1, format="csr")
        self._long = rng.random(2000)
        self._stream = rng.random(1_000_000)
        #: Kernel seconds of every reading taken, in time order.
        self.kernel_seconds: list[float] = []

    def _kernel(self) -> None:
        x = self._vector
        for _ in range(400):  # interpreter-bound: four small numpy calls a turn
            y = self._matrix @ x
            x = y / np.linalg.norm(y)
            x = x + 1e-3 * x[self._index]
        for _ in range(6):
            self._dense @ self._dense
        v = self._long
        for _ in range(38):
            v = self._sparse @ v
            v = v / (1.0 + abs(v[0]))
        for _ in range(2):
            self._stream.sum()

    def read(self) -> float:
        """The slowdown right now: median kernel seconds over the reference.

        An untimed run goes first: right after a solve or a blocking wait the
        core is cold and the kernel reads 30% slow whatever the box is doing.
        """
        self._kernel()
        runs = []
        for _ in range(RUNS_PER_READING):
            start = time.perf_counter()
            self._kernel()
            runs.append(time.perf_counter() - start)
        seconds = statistics.median(runs)
        self.kernel_seconds.append(seconds)
        return seconds / REFERENCE_KERNEL_S

    def stopwatch(self) -> Stopwatch:
        return Stopwatch(self)


class Stopwatch:
    """Times consecutive intervals; neighbours share the reading between them."""

    def __init__(self, gauge: SpeedGauge) -> None:
        self._gauge = gauge
        self._before = gauge.read()
        self._start = time.perf_counter()

    def start(self) -> None:
        """Open the next interval now (untimed work may precede it)."""
        self._start = time.perf_counter()

    def stop(self) -> Timed:
        """Close the interval, read the gauge, and open the next interval."""
        seconds = time.perf_counter() - self._start
        after = self._gauge.read()
        timed = Timed(seconds, 0.5 * (self._before + after))
        self._before = after
        self._start = time.perf_counter()
        return timed
