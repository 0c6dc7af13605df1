"""CUDA streams as discrete-event timelines.

A :class:`Stream` is a FIFO queue of simulated operations.  Submitting an
operation records when it can start (the later of the submitting thread's
CPU clock and the end of the previous operation on the stream) and when it
finishes (start plus the duration charged by the cost model).  This is enough
to reproduce the concurrency effects the paper relies on: CPU–GPU overlap
(the CPU keeps factorizing the next subdomain while the GPU works on the
previous one) and copy–compute overlap across multiple streams.

Thread safety: streams may be driven from the thread-pool workers of the
cluster runtime, so the submission bookkeeping is protected by a lock.  A
cost replay that schedules a whole subdomain loop on plain floats hands the
result over in one :meth:`Stream.extend`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

__all__ = ["StreamOperation", "Stream"]


@dataclass(frozen=True)
class StreamOperation:
    """One operation submitted to a stream (for logs and tests)."""

    name: str
    submit_time: float
    start_time: float
    end_time: float

    @property
    def duration(self) -> float:
        """Simulated execution time of the operation."""
        return self.end_time - self.start_time


@dataclass
class Stream:
    """A simulated CUDA stream.

    Attributes
    ----------
    index:
        Stream index within its device.
    tail:
        Simulated time at which the last submitted operation finishes.
    """

    index: int = 0
    tail: float = 0.0
    keep_log: bool = False
    operations: list[StreamOperation] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def submit(self, name: str, duration: float, submit_time: float) -> StreamOperation:
        """Submit an asynchronous operation.

        Parameters
        ----------
        name:
            Kernel / operation label.
        duration:
            Simulated execution time on the device.
        submit_time:
            The submitting thread's simulated CPU time (the operation cannot
            start earlier).

        Returns
        -------
        StreamOperation
            The scheduled operation (its ``end_time`` is the stream tail
            after submission).
        """
        if duration < 0.0:
            raise ValueError("duration must be non-negative")
        with self._lock:
            start = max(self.tail, submit_time)
            end = start + duration
            self.tail = end
            op = StreamOperation(
                name=name, submit_time=submit_time, start_time=start, end_time=end
            )
            if self.keep_log:
                self.operations.append(op)
            return op

    def extend(self, tail: float, operations: list[StreamOperation] = ()) -> None:
        """Adopt a timeline scheduled elsewhere: the new tail and the
        operations that led to it (kept only if the stream keeps a log)."""
        with self._lock:
            self.tail = tail
            if self.keep_log:
                self.operations.extend(operations)

    def wait_for(self, time: float) -> None:
        """Make the stream wait until ``time`` (event dependency)."""
        with self._lock:
            self.tail = max(self.tail, time)

    def reset(self) -> None:
        """Clear the timeline (used between benchmark repetitions)."""
        with self._lock:
            self.tail = 0.0
            self.operations.clear()

