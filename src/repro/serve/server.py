"""The threaded HTTP/JSON solve service (stdlib only).

Architecture: one handler thread per open connection
(:class:`socketserver.ThreadingTCPServer`) reads a request, answers it and
writes the reply with one ``sendall`` on a ``TCP_NODELAY`` socket.  An
admitted solve runs as :meth:`~repro.api.Session.solve_request` of the
pattern's pooled session on that same thread, so a request crosses no
thread boundary and its solve's spans nest under its ``serve.request``
span.  A semaphore lets at most ``concurrency`` solves run at once; the
other admitted requests wait on their own threads.  Admission control
counts admitted-but-unfinished solves: past ``queue_limit`` the service
answers ``429`` with a ``Retry-After`` header instead of queueing
unboundedly.  A per-request timeout maps to ``504``: one deadline thread
answers an overdue request with ``Connection: close`` (each request gets
exactly one response), while the abandoned solve finishes on its handler
thread under the session's per-workload locks, so it can never poison its
pooled session, and only then releases its admission slot.

Endpoints
---------
``POST /v1/solve``
    Body: the :mod:`repro.serve.protocol` envelope.  Responses: ``200``
    (result), ``400`` (validation, or a ``Content-Length`` that is not a
    non-negative integer), ``413`` (body over 64 MiB), ``429`` (saturated,
    with ``Retry-After``), ``504`` (timeout), ``500`` (internal).
``GET /v1/health``
    Liveness + pool occupancy; always cheap, never touches a session.
``GET /v1/metrics``
    Counters, latency percentiles (p50/p95/p99 over a sliding window),
    result-cache hit/miss statistics and per-pattern session cache stats.
``GET /v1/metrics/prometheus``
    The same registries in Prometheus text exposition format (version
    0.0.4): the server's ``repro_serve_*`` families, the session pool's
    ``repro_pool_*`` / ``repro_tier_*`` and the result cache's
    ``repro_result_cache_*``.

Every response carries an ``X-Repro-Request-Id`` header (echoed from the
request header of the same name when present and well-formed, generated
otherwise); the id is attached to the request's trace span and to the
structured access-log record emitted per request on
``repro.serve.access``.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import socket
import socketserver
import threading
import uuid
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from re import fullmatch
from time import monotonic
from typing import Any, BinaryIO

from repro.api import SolverSpec
from repro.observe.log import get_logger
from repro.observe.metrics import MetricsRegistry
from repro.observe.trace import trace_span
from repro.serve.cache import ResultCache
from repro.serve.metrics import latency_summary
from repro.serve.pool import SessionPool
from repro.serve.protocol import (
    SCHEMA_VERSION,
    ProtocolError,
    error_payload,
    parse_solve_request,
    pattern_key,
    request_fingerprint,
    solution_payload,
)

__all__ = ["ServeConfig", "SolveServer", "ServerThread"]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    504: "Gateway Timeout",
}

#: Upper bound on request head + body size (covers large rhs vectors).
_MAX_BODY = 64 * 1024 * 1024

#: Upper bound on a request head; a longer one closes the connection.
_MAX_HEAD = 64 * 1024

#: Accepted shape of a client-supplied ``X-Repro-Request-Id`` — anything
#: else is replaced by a generated id so log/header injection is impossible.
_REQUEST_ID = r"[A-Za-z0-9_-]{1,64}"

_access_log = get_logger("repro.serve.access")

#: A routed request's answer; ``None`` when the deadline thread answered it.
Reply = tuple[int, "dict[str, Any] | str"] | None


@dataclass(frozen=True)
class ServeConfig:
    """Capacity and addressing knobs of one service instance.

    Attributes
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read it back from
        :attr:`SolveServer.port` after start).
    spec:
        Default :class:`SolverSpec` (or preset name) of pooled sessions;
        requests may override per call.
    concurrency:
        Solves running at once; further admitted requests wait on their
        handler threads.
    queue_limit:
        Admission bound: admitted-but-unfinished solves beyond which new
        requests get ``429``.  Must be >= ``concurrency`` to ever queue.
    timeout_seconds:
        Default per-request solve timeout (→ ``504``); requests may lower
        or raise it via the envelope's ``timeout`` field.
    pool_size:
        Session-pool capacity in workload *patterns* (LRU-evicted).
    cache_size:
        Result-cache capacity in distinct ``(workload, spec, rhs)`` hashes.
    retry_after_seconds:
        Value of the ``Retry-After`` header on ``429`` responses.
    """

    host: str = "127.0.0.1"
    port: int = 8421
    spec: SolverSpec | str | None = None
    concurrency: int = 2
    queue_limit: int = 8
    timeout_seconds: float = 60.0
    pool_size: int = 8
    cache_size: int = 256
    retry_after_seconds: float = 1.0

    def __post_init__(self) -> None:
        if self.concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {self.concurrency}")
        if self.queue_limit < self.concurrency:
            raise ValueError(
                f"queue_limit ({self.queue_limit}) must be >= concurrency "
                f"({self.concurrency}); a limit below the worker count could "
                "never fill the pool"
            )
        if not self.timeout_seconds > 0:
            raise ValueError(f"timeout_seconds must be positive, got {self.timeout_seconds}")


class _Exchange:
    """One request on its connection: what its access-log record and (for a
    solve) the deadline thread need.  ``answered`` flips once, under the
    deadline lock, for whichever thread writes the response."""

    __slots__ = ("sock", "request_id", "method", "path", "started", "info", "timeout", "answered")

    def __init__(self, sock: socket.socket, request_id: str, method: str, path: str) -> None:
        self.sock = sock
        self.request_id = request_id
        self.method = method
        self.path = path
        self.started = monotonic()
        #: The access log's extra fields: disposition and workload pattern.
        self.info: dict[str, Any] = {}
        self.timeout = 0.0
        self.answered = False


class _Deadlines:
    """One thread that answers the solves still running at their deadline.

    :meth:`add` wakes the thread only when the new deadline is earlier than
    the one it sleeps towards, and :meth:`settle` wakes nobody, so a
    request answered in time costs no other thread a wakeup.  An exchange
    is answered exactly once: by its handler (``settle`` returned ``True``)
    or by ``on_overdue`` on this thread.
    """

    def __init__(self, on_overdue: Callable[[_Exchange], None]) -> None:
        self._on_overdue = on_overdue
        self._cond = threading.Condition(threading.Lock())
        self._heap: list[tuple[float, int, _Exchange]] = []
        self._order = itertools.count()
        #: The deadline the thread sleeps towards (``-inf`` while awake).
        self._wake_at = -math.inf
        self._closed = False
        self._thread = threading.Thread(target=self._run, name="repro-serve-deadlines", daemon=True)
        self._thread.start()

    def add(self, exchange: _Exchange, deadline: float) -> None:
        with self._cond:
            heap = self._heap
            # Requests settle about in deadline order: drop the settled top.
            while heap and heap[0][2].answered:
                heapq.heappop(heap)
            heapq.heappush(heap, (deadline, next(self._order), exchange))
            if deadline < self._wake_at:
                self._cond.notify()

    def settle(self, exchange: _Exchange) -> bool:
        """Claim the response for the handler (``False``: already a 504)."""
        with self._cond:
            claimed = not exchange.answered
            exchange.answered = True
        return claimed

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify()
        self._thread.join()

    def _run(self) -> None:
        while True:
            with self._cond:
                overdue = self._wait_for_overdue()
            if overdue is None:
                return
            for exchange in overdue:
                self._on_overdue(exchange)

    def _wait_for_overdue(self) -> list[_Exchange] | None:
        """Sleep until some deadline passes; claim its exchanges (lock held)."""
        heap = self._heap
        while not self._closed:
            now = monotonic()
            overdue = []
            while heap and (heap[0][2].answered or heap[0][0] <= now):
                exchange = heapq.heappop(heap)[2]
                if not exchange.answered:
                    exchange.answered = True
                    overdue.append(exchange)
            if overdue:
                return overdue
            self._wake_at = heap[0][0] if heap else math.inf
            self._cond.wait(self._wake_at - now if heap else None)
            self._wake_at = -math.inf
        return None


def _read_request(rfile: BinaryIO) -> tuple[str, str, dict[str, str], bytes] | None:
    """The next request on a connection (``None`` when it closed, sent a head
    over ``_MAX_HEAD`` bytes or no parseable request line); raises
    :class:`ProtocolError` for a bad ``Content-Length``."""
    lines: list[str] = []
    budget = _MAX_HEAD
    while True:
        line = rfile.readline(budget)
        budget -= len(line)
        if not line.endswith(b"\n"):
            return None
        if line == b"\r\n":
            break
        lines.append(line.decode("latin-1").rstrip("\r\n"))
    try:
        method, path, _version = lines[0].split(" ", 2)
    except (IndexError, ValueError):
        return None
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    declared = headers.get("content-length", "0") or "0"
    if not fullmatch(r"[0-9]+", declared):
        raise ProtocolError(f"Content-Length {declared!r} is not a non-negative integer")
    length = int(declared)
    if length > _MAX_BODY:
        raise ProtocolError(f"request body of {length} bytes is over {_MAX_BODY} bytes", 413)
    body = rfile.read(length) if length else b""
    if len(body) < length:
        return None
    return method.upper(), path.split("?", 1)[0], headers, body


class _Connection(socketserver.StreamRequestHandler):
    """A connection's handler thread: :meth:`SolveServer._serve_connection`."""

    disable_nagle_algorithm = True

    def handle(self) -> None:
        self.server.app._serve_connection(self.connection, self.rfile)  # type: ignore[attr-defined]


class _Front(socketserver.ThreadingTCPServer):
    """The listening socket and its accept loop; one thread per connection,
    which ends when its connection closes."""

    allow_reuse_address = True
    daemon_threads = True
    block_on_close = False

    def __init__(self, app: "SolveServer") -> None:
        self.app = app
        super().__init__((app.config.host, app.config.port), _Connection)


class SolveServer:
    """One service instance: session pool + result cache + HTTP front.

    :meth:`start` binds, :meth:`serve_forever` runs the accept loop on the
    calling thread until :meth:`shutdown` (from another thread), and
    :meth:`close` releases the socket, the deadline thread and the pool.
    """

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        self.pool = SessionPool(self.config.spec, max_sessions=self.config.pool_size)
        self.cache = ResultCache(self.config.cache_size)
        #: The server's ``repro_serve_*`` counters and latency histogram.
        self.metrics = MetricsRegistry()
        self._latency = self.metrics.histogram(
            "repro_serve_request_latency_seconds", "Wall latency of answered solve requests"
        )
        #: The window ``/v1/metrics`` takes its latency percentiles from.
        self._latencies: deque[float] = deque(maxlen=2048)
        self._started = monotonic()
        #: At most ``concurrency`` solves run at once.
        self._slots = threading.Semaphore(self.config.concurrency)
        self._in_flight = 0
        #: Guards the in-flight count and the latency window.
        self._admission_lock = threading.Lock()
        self._front: _Front | None = None
        self._deadlines: _Deadlines | None = None
        #: Actual bound port (differs from config when ``port=0``).
        self.port: int = self.config.port

    # ------------------------------------------------------------------ #
    # Lifecycle                                                           #
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Bind the listening socket and start the deadline thread (idempotent)."""
        if self._front is not None:
            return
        self._front = _Front(self)
        self.port = self._front.server_address[1]
        self._deadlines = _Deadlines(self._answer_overdue)

    def serve_forever(self) -> None:
        """Start (if needed) and accept connections until :meth:`shutdown`."""
        self.start()
        assert self._front is not None
        self._front.serve_forever()

    def shutdown(self) -> None:
        """Stop a :meth:`serve_forever` running on another thread and wait
        for its loop to exit."""
        if self._front is not None:
            self._front.shutdown()

    def close(self) -> None:
        """Stop accepting, then release the deadline thread and the pool."""
        if self._front is not None:
            self._front.server_close()
            self._front = None
        if self._deadlines is not None:
            self._deadlines.close()
            self._deadlines = None
        self.pool.close()

    # ------------------------------------------------------------------ #
    # HTTP plumbing                                                       #
    # ------------------------------------------------------------------ #
    def _serve_connection(self, sock: socket.socket, rfile: BinaryIO) -> None:
        """Answer the requests of one connection, in order, on this thread."""
        try:
            while True:
                try:
                    request = _read_request(rfile)
                except ProtocolError as exc:
                    # The body cannot be framed: answer, then close.
                    self._count(f"http_rejected_{exc.status}")
                    payload = error_payload(str(exc), exc.status)
                    self._respond(sock, exc.status, payload, keep_alive=False)
                    return
                if request is None:
                    return
                method, path, headers, body = request
                keep_alive = headers.get("connection", "keep-alive") != "close"
                request_id = headers.get("x-repro-request-id", "")
                if not fullmatch(_REQUEST_ID, request_id):
                    request_id = uuid.uuid4().hex[:16]
                exchange = _Exchange(sock, request_id, method, path)
                with trace_span(
                    "serve.request", request_id=request_id, method=method, path=path
                ):
                    reply = self._dispatch(method, path, body, exchange)
                if reply is None:
                    return  # answered 504 on the deadline thread, connection closing
                status, payload = reply
                self._log_access(exchange, status)
                self._respond(sock, status, payload, keep_alive, request_id)
                if not keep_alive:
                    return
        except OSError:
            pass  # the peer went away

    def _respond(
        self,
        sock: socket.socket,
        status: int,
        payload: dict[str, Any] | str,
        keep_alive: bool,
        request_id: str | None = None,
    ) -> None:
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        headers = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        if request_id is not None:
            headers.append(f"X-Repro-Request-Id: {request_id}")
        if status == 429:
            headers.append(f"Retry-After: {self.config.retry_after_seconds:g}")
        sock.sendall(("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + body)

    def _log_access(self, exchange: _Exchange, status: int) -> None:
        _access_log.info(
            "request",
            request_id=exchange.request_id,
            method=exchange.method,
            path=exchange.path,
            status=status,
            latency_ms=round((monotonic() - exchange.started) * 1000.0, 3),
            **exchange.info,
        )

    # ------------------------------------------------------------------ #
    # Routing                                                             #
    # ------------------------------------------------------------------ #
    def _dispatch(self, method: str, path: str, body: bytes, exchange: _Exchange) -> Reply:
        self._count("requests")
        if path == "/v1/health":
            if method != "GET":
                return 405, error_payload(f"{method} not allowed on {path}", 405)
            return 200, self._health()
        if path == "/v1/metrics":
            if method != "GET":
                return 405, error_payload(f"{method} not allowed on {path}", 405)
            return 200, self._metrics()
        if path == "/v1/metrics/prometheus":
            if method != "GET":
                return 405, error_payload(f"{method} not allowed on {path}", 405)
            return 200, self._metrics_prometheus()
        if path == "/v1/solve":
            if method != "POST":
                return 405, error_payload(f"{method} not allowed on {path}", 405)
            return self._solve(body, exchange)
        self._count("errors_404")
        exchange.info["disposition"] = "not-found"
        return 404, error_payload(f"unknown path {path!r}", 404)

    def _health(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "status": "ok",
            "sessions": len(self.pool),
            "in_flight": self._in_flight,
            "concurrency": self.config.concurrency,
            "queue_limit": self.config.queue_limit,
        }

    def _count(self, name: str, amount: float = 1) -> None:
        self.metrics.counter(f"repro_serve_{name}_total", f"Serve counter {name!r}").inc(amount)

    def _observe_latency(self, seconds: float) -> None:
        with self._admission_lock:
            self._latencies.append(seconds)
        self._latency.observe(seconds)

    def _metrics(self) -> dict[str, Any]:
        with self._admission_lock:
            window = list(self._latencies)
        return {
            "schema_version": SCHEMA_VERSION,
            "uptime_seconds": monotonic() - self._started,
            "counters": self.metrics.values("repro_serve_"),
            "latency_seconds": {"window": len(window), **latency_summary(window)},
            "result_cache": self.cache.stats(),
            "session_pool": self.pool.stats(),
            "in_flight": self._in_flight,
        }

    def _metrics_prometheus(self) -> str:
        now = MetricsRegistry()
        now.gauge("repro_serve_uptime_seconds", "Seconds since the service started").set(
            monotonic() - self._started
        )
        now.gauge("repro_serve_in_flight", "Admitted-but-unfinished solve requests").set(
            self._in_flight
        )
        registries = (self.metrics, now, self.pool.view(), self.cache.view())
        return "".join(r.render_prometheus() for r in registries)

    # ------------------------------------------------------------------ #
    # The solve endpoint                                                  #
    # ------------------------------------------------------------------ #
    def _admit(self) -> bool:
        with self._admission_lock:
            if self._in_flight >= self.config.queue_limit:
                return False
            self._in_flight += 1
            return True

    def _release(self) -> None:
        with self._admission_lock:
            self._in_flight -= 1

    def _answer_overdue(self, exchange: _Exchange) -> None:
        """The deadline thread's ``504``; the solve runs on, abandoned."""
        self._count("solve_timeouts_504")
        exchange.info["disposition"] = "timeout-504"
        payload = error_payload(
            f"solve did not finish within {exchange.timeout:g}s; the session "
            "stays serviceable and the request was abandoned",
            504,
        )
        self._log_access(exchange, 504)
        try:
            self._respond(exchange.sock, 504, payload, False, exchange.request_id)
            exchange.sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass

    def _solve(self, body: bytes, exchange: _Exchange) -> Reply:
        info = exchange.info
        started = monotonic()
        self._count("solve_requests")
        try:
            request = parse_solve_request(body)
        except ProtocolError as exc:
            self._count("solve_rejected_400")
            info["disposition"] = f"invalid-{exc.status}"
            return exc.status, error_payload(str(exc), exc.status)

        info["pattern"] = "/".join(str(part) for part in pattern_key(request.workload))
        spec = request.spec if request.spec is not None else self.pool.spec
        # A disabled cache (capacity 0) is a miss without a key: no hash.
        fingerprint = None
        if self.cache.max_entries:
            fingerprint = request_fingerprint(request.workload, spec, request.rhs)
        cached = self.cache.get(fingerprint)
        if cached is not None:
            self._count("solve_cache_hits")
            elapsed = monotonic() - started
            self._observe_latency(elapsed)
            info["disposition"] = "cached"
            return 200, {**cached, "cached": True, "solve_seconds": elapsed}
        self._count("solve_cache_misses")

        if not self._admit():
            self._count("solve_rejected_429")
            info["disposition"] = "rejected-429"
            return 429, error_payload(
                f"solve queue is full ({self.config.queue_limit} in flight); "
                "retry later",
                429,
            )

        deadlines = self._deadlines
        assert deadlines is not None, "the server is not started"
        exchange.timeout = (
            request.timeout if request.timeout is not None else self.config.timeout_seconds
        )
        deadlines.add(exchange, started + exchange.timeout)
        solution = error = None
        # Admission is released when the solve ends, not when the request is
        # answered: a timed-out solve still holds its slot and its session.
        try:
            with self._slots, self.pool.hold(request.workload) as session:
                solution = session.solve_request(request.workload, spec, request.rhs)
        except Exception as exc:  # noqa: BLE001 - mapped to wire statuses
            error = exc
        finally:
            self._release()
        if not deadlines.settle(exchange):
            return None
        if error is not None:
            status = 400 if isinstance(error, (ValueError, TypeError, KeyError)) else 500
            self._count(f"solve_errors_{status}")
            info["disposition"] = f"error-{status}"
            return status, error_payload(f"solve failed: {error}", status)

        elapsed = monotonic() - started
        info["disposition"] = "solved"
        self._count("solve_completed")
        self._observe_latency(elapsed)
        # The solutions' own coarse seconds; ``session_pool.coarse_seconds``
        # is the projectors' cumulative time, factorizations included.
        self._count("solve_coarse_seconds", solution.coarse_seconds)
        payload = solution_payload(
            solution,
            solve_seconds=elapsed,
            cached=False,
            return_primal=request.return_primal,
        )
        # A capped, non-converged solve is an answer, not the solution:
        # only converged solutions are memoised.
        if solution.converged:
            self.cache.put(fingerprint, payload)
        return 200, payload


class ServerThread:
    """Run a :class:`SolveServer`'s accept loop on a background thread
    (tests, benches).

    .. code-block:: python

        with ServerThread(ServeConfig(port=0)) as server:
            client = ServeClient("127.0.0.1", server.port)
            ...
    """

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.server = SolveServer(config or ServeConfig(port=0))
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def base_url(self) -> str:
        return f"http://{self.server.config.host}:{self.port}"

    def start(self) -> "ServerThread":
        if self._thread is None:
            self.server.start()
            self._thread = threading.Thread(
                target=self.server.serve_forever, name="repro-serve-accept", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        thread, self._thread = self._thread, None
        self.server.shutdown()
        thread.join(timeout=30)
        self.server.close()

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
