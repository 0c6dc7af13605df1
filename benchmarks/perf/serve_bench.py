"""The served workload: a real ``repro-serve`` subprocess under closed-loop load.

The load generator is this file (stdlib ``http.client``), not the package's
own client, so the client side of the measurement is independent of the
code under test.  Closed loop: a client sends its next request only after
the previous reply was read in full.
"""

from __future__ import annotations

import http.client
import json
import subprocess
import sys
import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

from . import env
from .gauge import SpeedGauge

__all__ = ["BLOCK_REQUESTS", "Reply", "Server", "ServeClient", "closed_loop", "solve_body"]

_HOST = "127.0.0.1"
_BANNER = "repro-serve listening on http://"
#: Requests one client sends back to back between two gauge readings: ~0.5 s,
#: so the server sits idle for ~5% of the pass and never between two requests
#: of a block.  Longer blocks read the machine speed too rarely (README,
#: "Reference speed").
BLOCK_REQUESTS = 8


class Server:
    """One ``repro-serve`` subprocess on an ephemeral port."""

    def __init__(self, args: Sequence[str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve.cli", *args],
            env=env.child_env(),
            stdout=subprocess.PIPE,
            # Access logs go to stderr at the default level, as users get them.
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            self.port = self._read_port()
        except BaseException:
            self.close()
            raise

    def _read_port(self) -> int:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            if line.startswith(_BANNER):
                return int(line.strip().rsplit(":", 1)[1])
        raise RuntimeError(f"repro-serve exited with code {self.proc.wait()} before listening")

    def close(self) -> float:
        """Stop the server; returns its peak resident set in MB."""
        peak = env.peak_rss_mb(self.proc.pid) if self.proc.poll() is None else float("nan")
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        return peak if peak == peak else env.reaped_children_peak_rss_mb()


@dataclass
class Reply:
    """One request as the client saw it (``status`` 0 = refused / timed out)."""

    start: float
    end: float
    status: int
    body: bytes
    #: Machine slowdown while the request's block (or pass) ran.
    slowdown: float = 1.0

    def json(self) -> dict[str, Any]:
        return json.loads(self.body)


class ServeClient:
    """One keep-alive connection."""

    def __init__(self, port: int, timeout: float = 60.0) -> None:
        self._port, self._timeout = port, timeout
        self._conn = http.client.HTTPConnection(_HOST, port, timeout=timeout)

    def request(self, method: str, path: str, body: bytes | None = None) -> Reply:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        start = time.perf_counter()
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            data = response.read()
            status = response.status
        except (OSError, http.client.HTTPException):
            # Refused, reset or timed out: a failed operation.  Reconnect so
            # the next request starts from a clean connection.
            self._conn.close()
            self._conn = http.client.HTTPConnection(_HOST, self._port, timeout=self._timeout)
            data, status = b"", 0
        return Reply(start, time.perf_counter(), status, data)

    def get_json(self, path: str) -> dict[str, Any]:
        return self.request("GET", path).json()

    def close(self) -> None:
        self._conn.close()


def solve_body(workload: Any, spec: Any, factor: float, return_primal: bool = False) -> bytes:
    """The ``POST /v1/solve`` envelope of one seeded scalar load factor."""
    envelope = {
        "schema_version": 1,
        "workload": workload.to_dict(),
        "spec": spec.to_dict(),
        "rhs": factor,
        "return_primal": return_primal,
    }
    return json.dumps(envelope).encode("utf-8")


def closed_loop(
    port: int, bodies: list[bytes], gauge: SpeedGauge, clients: int = 1
) -> list[Reply]:
    """Send ``bodies`` from ``clients`` closed-loop connections.

    ``replies[i]`` answers ``bodies[i]``.  One client sends blocks of
    ``BLOCK_REQUESTS`` back to back on its keep-alive connection and the gauge
    is read between blocks.  Several clients get the bodies dealt round-robin,
    one thread and one connection each, and send everything back to back: the
    gauge is read before and after the pass.  Every reply carries the slowdown
    of its block.
    """
    replies: list[Reply | None] = [None] * len(bodies)

    def drive(client: ServeClient, indices: range) -> None:
        for i in indices:
            replies[i] = client.request("POST", "/v1/solve", bodies[i])

    def drive_all(first: int) -> None:
        client = ServeClient(port)
        try:
            drive(client, range(first, len(bodies), clients))
        finally:
            client.close()

    blocks: list[tuple[range, float]] = []
    watch = gauge.stopwatch()
    if clients == 1:
        client = ServeClient(port)
        try:
            for first in range(0, len(bodies), BLOCK_REQUESTS):
                block = range(first, min(first + BLOCK_REQUESTS, len(bodies)))
                watch.start()
                drive(client, block)
                blocks.append((block, watch.stop().slowdown))
        finally:
            client.close()
    else:
        threads = [threading.Thread(target=drive_all, args=(c,)) for c in range(clients)]
        watch.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        blocks.append((range(len(bodies)), watch.stop().slowdown))
    if any(reply is None for reply in replies):
        raise RuntimeError("a load-generator client died before sending all its requests")
    for block, slowdown in blocks:
        for i in block:
            replies[i].slowdown = slowdown  # type: ignore[union-attr]
    return replies  # type: ignore[return-value]
