"""Closed-loop load generator for the solve service.

``run_load`` drives N concurrent clients, each looping over a request mix
(issue → wait for the response → issue the next), records every request's
wall latency, and aggregates p50/p95/p99, throughput and per-status counts
into a :class:`LoadReport`.  The serve bench scenario and the CI smoke job
are thin wrappers around it.

``429`` rejections are retried after the server's ``Retry-After`` hint (they
are counted, not treated as failures): a closed-loop generator pushing past
the admission limit is expected to be throttled.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.serve.client import ServeClient, ServeError
from repro.serve.metrics import latency_summary

__all__ = ["LoadReport", "run_load"]


@dataclass
class LoadReport:
    """Aggregated results of one load-generation run."""

    requests: int = 0
    completed: int = 0
    cache_hits: int = 0
    rejected_429: int = 0
    timeouts_504: int = 0
    errors: int = 0
    wall_seconds: float = 0.0
    latencies: list[float] = field(default_factory=list)
    #: Response payloads of completed requests (only with ``keep_replies``).
    replies: list[dict[str, Any]] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Completed solves per second of wall time."""
        return self.completed / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def latency_percentiles(self) -> dict[str, float]:
        """p50/p95/p99/mean/max over completed-request latencies."""
        return latency_summary(self.latencies)

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "requests": self.requests,
            "completed": self.completed,
            "cache_hits": self.cache_hits,
            "rejected_429": self.rejected_429,
            "timeouts_504": self.timeouts_504,
            "errors": self.errors,
            "wall_seconds": self.wall_seconds,
            "throughput_per_second": self.throughput,
        }
        doc.update(self.latency_percentiles())
        return doc


def run_load(
    host: str,
    port: int,
    requests: list[dict[str, Any]],
    *,
    clients: int = 2,
    rounds: int = 1,
    max_retries: int = 50,
    keep_replies: bool = False,
) -> LoadReport:
    """Drive the service with ``clients`` concurrent closed-loop workers.

    Parameters
    ----------
    requests:
        The request mix; each entry is a kwargs dict for
        :meth:`ServeClient.solve` (e.g. ``{"workload": "heat-small",
        "rhs": 2.0}``).  Workers stride through the mix so concurrent
        clients hit different entries at any moment.
    clients:
        Concurrent workers, each with its own keep-alive connection.
    rounds:
        How many times each worker traverses its share of the mix.
    max_retries:
        Upper bound on ``429`` retries per request before counting it as
        an error (prevents livelock against a saturated server).
    keep_replies:
        Also collect the completed responses' payloads into
        :attr:`LoadReport.replies` (the bench scenario reads the simulated
        solve metrics out of them).
    """
    report = LoadReport()
    lock = threading.Lock()

    def _worker(worker_id: int) -> None:
        with ServeClient(host, port) as client:
            for _ in range(rounds):
                for index in range(worker_id, len(requests), clients):
                    kwargs = requests[index]
                    started = time.perf_counter()
                    retries = 0
                    while True:
                        with lock:
                            report.requests += 1
                        try:
                            reply = client.solve(**kwargs)
                        except ServeError as exc:
                            if exc.status == 429 and retries < max_retries:
                                retries += 1
                                with lock:
                                    report.rejected_429 += 1
                                time.sleep(exc.retry_after or 0.05)
                                continue
                            with lock:
                                if exc.status == 504:
                                    report.timeouts_504 += 1
                                else:
                                    report.errors += 1
                            break
                        elapsed = time.perf_counter() - started
                        with lock:
                            report.completed += 1
                            report.latencies.append(elapsed)
                            if reply.get("cached"):
                                report.cache_hits += 1
                            if keep_replies:
                                report.replies.append(reply)
                        break

    workers = [
        threading.Thread(target=_worker, args=(i,), name=f"loadgen-{i}")
        for i in range(clients)
    ]
    started = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    report.wall_seconds = time.perf_counter() - started
    return report
