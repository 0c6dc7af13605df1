"""The asyncio HTTP/JSON solve service (stdlib only).

Architecture: the asyncio loop owns the sockets and the protocol; solves run
on a bounded thread pool (``concurrency`` workers) and are awaited with
``asyncio.wait_for``.  Admission control counts admitted-but-unfinished
solves: past ``queue_limit`` the service answers ``429`` with a
``Retry-After`` header instead of queueing unboundedly.  A per-request
timeout maps to ``504``; the timed-out worker thread finishes (or fails) in
the background under the session's per-workload locks, so an abandoned
request can never poison its pooled session.  A worker runs one request as
:meth:`~repro.api.Session.solve_request` of the pattern's pooled session.

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

import asyncio
import json
import threading
import uuid
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from re import fullmatch
from time import monotonic
from typing import Any

from repro.api import SolverSpec
from repro.observe.log import get_logger
from repro.observe.metrics import MetricsRegistry
from repro.observe.trace import capture_context, run_with_context, trace_span
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

#: Accepted shape of a client-supplied ``X-Repro-Request-Id`` — anything
#: else is replaced by a generated id so log/header injection is impossible.
_REQUEST_ID = r"[A-Za-z0-9_-]{1,64}"

_access_log = get_logger("repro.serve.access")


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
        Solve worker threads — solves actually running in parallel.
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


class SolveServer:
    """One service instance: session pool + result cache + HTTP front."""

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
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.concurrency, thread_name_prefix="repro-serve"
        )
        self._in_flight = 0
        #: Guards the in-flight count and the latency window.
        self._admission_lock = threading.Lock()
        self._server: asyncio.AbstractServer | None = None
        #: Actual bound port (differs from config when ``port=0``).
        self.port: int = self.config.port

    # ------------------------------------------------------------------ #
    # Lifecycle                                                           #
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind the listening socket (idempotent)."""
        if self._server is not None:
            return
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until cancelled."""
        await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        """Stop accepting, then release the pool and worker threads."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._executor.shutdown(wait=False, cancel_futures=True)
        self.pool.close()

    # ------------------------------------------------------------------ #
    # HTTP plumbing                                                       #
    # ------------------------------------------------------------------ #
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except ProtocolError as exc:
                    # The body cannot be framed: answer, then close.
                    self._count(f"http_rejected_{exc.status}")
                    payload = error_payload(str(exc), exc.status)
                    await self._respond(writer, exc.status, payload, keep_alive=False)
                    break
                if request is None:
                    break
                method, path, headers, body = request
                keep_alive = headers.get("connection", "keep-alive") != "close"
                request_id = headers.get("x-repro-request-id", "")
                if not fullmatch(_REQUEST_ID, request_id):
                    request_id = uuid.uuid4().hex[:16]
                info: dict[str, Any] = {}
                started = monotonic()
                with trace_span(
                    "serve.request", request_id=request_id, method=method, path=path
                ):
                    status, payload = await self._dispatch(method, path, body, info)
                _access_log.info(
                    "request",
                    request_id=request_id,
                    method=method,
                    path=path,
                    status=status,
                    latency_ms=round((monotonic() - started) * 1000.0, 3),
                    **info,
                )
                await self._respond(
                    writer,
                    status,
                    payload,
                    keep_alive,
                    extra_headers=(f"X-Repro-Request-Id: {request_id}",),
                )
                if not keep_alive:
                    break
        except asyncio.CancelledError:
            pass  # server shutdown: drop the connection quietly
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        """The next request on the connection (``None`` when it closed or
        sent no parseable request line); raises :class:`ProtocolError` for
        a bad ``Content-Length``."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError:
            return None
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, path, _version = lines[0].split(" ", 2)
        except ValueError:
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
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path.split("?", 1)[0], headers, body

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict[str, Any] | str,
        keep_alive: bool,
        extra_headers: tuple[str, ...] = (),
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
            *extra_headers,
        ]
        if status == 429:
            headers.append(f"Retry-After: {self.config.retry_after_seconds:g}")
        writer.write(("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()

    # ------------------------------------------------------------------ #
    # Routing                                                             #
    # ------------------------------------------------------------------ #
    async def _dispatch(
        self, method: str, path: str, body: bytes, info: dict[str, Any] | None = None
    ) -> tuple[int, dict[str, Any] | str]:
        # ``info`` is filled for the access log: the request's disposition
        # (cached / solved / rejected-429 / ...) and its workload pattern.
        if info is None:
            info = {}
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
            return await self._solve(body, info)
        self._count("errors_404")
        info["disposition"] = "not-found"
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

    def _release(self, _future: Any = None) -> None:
        with self._admission_lock:
            self._in_flight -= 1

    async def _solve(
        self, body: bytes, info: dict[str, Any] | None = None
    ) -> tuple[int, dict[str, Any]]:
        if info is None:
            info = {}
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

        session = self.pool.session_for(request.workload)
        loop = asyncio.get_running_loop()
        # Carry the active trace context (if any) into the worker thread so
        # the solve's spans nest under this request's "serve.request" span.
        solve = session.solve_request
        state = capture_context()
        if state is not None:
            solve = partial(run_with_context, state, session.solve_request)
        future = loop.run_in_executor(
            self._executor, solve, request.workload, spec, request.rhs
        )
        # Admission is released when the *thread* finishes, not when the
        # request is answered: a timed-out solve still occupies a worker.
        future.add_done_callback(self._release)
        timeout = request.timeout if request.timeout is not None else self.config.timeout_seconds
        try:
            solution = await asyncio.wait_for(asyncio.shield(future), timeout)
        except asyncio.TimeoutError:
            self._count("solve_timeouts_504")
            info["disposition"] = "timeout-504"
            # The worker thread keeps running under the session's workload
            # locks; retrieve its eventual outcome so nothing warns on GC.
            future.add_done_callback(lambda f: f.cancelled() or f.exception())
            return 504, error_payload(
                f"solve did not finish within {timeout:g}s; the session "
                "stays serviceable and the request was abandoned",
                504,
            )
        except Exception as exc:  # noqa: BLE001 - mapped to wire statuses
            status = 400 if isinstance(exc, (ValueError, TypeError, KeyError)) else 500
            self._count(f"solve_errors_{status}")
            info["disposition"] = f"error-{status}"
            return status, error_payload(f"solve failed: {exc}", status)

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
    """Run a :class:`SolveServer` on a background thread (tests, benches).

    .. code-block:: python

        with ServerThread(ServeConfig(port=0)) as server:
            client = ServeClient("127.0.0.1", server.port)
            ...
    """

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.server = SolveServer(config or ServeConfig(port=0))
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def base_url(self) -> str:
        return f"http://{self.server.config.host}:{self.port}"

    def start(self) -> "ServerThread":
        if self._thread is not None:
            return self

        def _run() -> None:
            loop = asyncio.new_event_loop()
            self._loop = loop
            asyncio.set_event_loop(loop)

            async def _serve() -> None:
                await self.server.start()
                self._started.set()
                assert self.server._server is not None
                await self.server._server.serve_forever()

            try:
                loop.run_until_complete(_serve())
            except asyncio.CancelledError:
                pass
            finally:
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
                loop.run_until_complete(self.server.aclose())
                loop.close()

        self._thread = threading.Thread(target=_run, name="repro-serve-loop", daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("serve loop failed to start within 30s")
        return self

    def stop(self) -> None:
        if self._thread is None or self._loop is None:
            return
        loop, thread = self._loop, self._thread
        self._loop = self._thread = None

        def _cancel_all() -> None:
            for task in asyncio.all_tasks(loop):
                task.cancel()

        loop.call_soon_threadsafe(_cancel_all)
        thread.join(timeout=30)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
