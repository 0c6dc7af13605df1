"""A minimal blocking client for the solve service (stdlib ``http.client``).

.. code-block:: python

    from repro.serve.client import ServeClient

    with ServeClient("127.0.0.1", 8421) as client:
        reply = client.solve("heat-small", spec="cpu-explicit", rhs=2.0)
        print(reply["result"]["iterations"], reply["cached"])

Errors come back as :class:`ServeError` carrying the HTTP status, the
server's message and (on ``429``) the ``Retry-After`` hint, so callers can
implement backoff without parsing bodies.
"""

from __future__ import annotations

import http.client
import json
from typing import Any

from repro.api import SolverSpec, Workload
from repro.serve.protocol import SCHEMA_VERSION

__all__ = ["ServeClient", "ServeError"]


class ServeError(RuntimeError):
    """A non-2xx response from the solve service."""

    def __init__(self, status: int, message: str, retry_after: float | None = None) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        #: Parsed ``Retry-After`` header (seconds) on 429 responses.
        self.retry_after = retry_after


def _jsonable(value: Workload | SolverSpec | str | dict | None) -> Any:
    if value is None or isinstance(value, (str, dict)):
        return value
    return value.to_dict()


class ServeClient:
    """One keep-alive connection to a solve service."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8421, timeout: float = 300.0) -> None:
        self.host = host
        self.port = port
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)

    # ------------------------------------------------------------------ #
    def solve(
        self,
        workload: Workload | str | dict,
        *,
        spec: SolverSpec | str | dict | None = None,
        rhs: float | list | None = None,
        return_primal: bool = False,
        timeout: float | None = None,
    ) -> dict[str, Any]:
        """``POST /v1/solve``; returns the response payload.

        ``workload``/``spec`` accept api objects, preset names or already
        serialized dicts; ``rhs`` follows the ``Session.solve_request``
        convention (``None``, scalar factor, or per-subdomain load vectors).
        """
        envelope: dict[str, Any] = {
            "schema_version": SCHEMA_VERSION,
            "workload": _jsonable(workload),
        }
        if spec is not None:
            envelope["spec"] = _jsonable(spec)
        if rhs is not None:
            envelope["rhs"] = rhs
        if return_primal:
            envelope["return_primal"] = True
        if timeout is not None:
            envelope["timeout"] = timeout
        return self._request("POST", "/v1/solve", envelope)

    def health(self) -> dict[str, Any]:
        """``GET /v1/health``."""
        return self._request("GET", "/v1/health")

    def metrics(self) -> dict[str, Any]:
        """``GET /v1/metrics``; raises :class:`ServeError` on an
        incompatible ``schema_version``."""
        document = self._request("GET", "/v1/metrics")
        version = document.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ServeError(
                200,
                f"metrics schema_version mismatch: server says {version!r}, "
                f"client speaks {SCHEMA_VERSION!r}",
            )
        return document

    def metrics_prometheus(self) -> str:
        """``GET /v1/metrics/prometheus``; returns the raw text exposition."""
        return self._request_text("GET", "/v1/metrics/prometheus")

    # ------------------------------------------------------------------ #
    def _exchange(
        self, method: str, path: str, payload: dict[str, Any] | None = None
    ) -> tuple[http.client.HTTPResponse, bytes]:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            raw = response.read()
        except (http.client.HTTPException, ConnectionError, OSError):
            # A dropped keep-alive connection: reconnect once.
            self._conn.close()
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            raw = response.read()
        return response, raw

    def _request_text(self, method: str, path: str) -> str:
        response, raw = self._exchange(method, path)
        text = raw.decode("utf-8", "replace")
        if response.status >= 400:
            raise ServeError(response.status, text.strip())
        return text

    def _request(
        self, method: str, path: str, payload: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        response, raw = self._exchange(method, path, payload)
        try:
            document = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ServeError(response.status, f"unparseable response body: {exc}") from None
        if response.status >= 400:
            retry_after = response.getheader("Retry-After")
            raise ServeError(
                response.status,
                document.get("error", raw.decode("utf-8", "replace")),
                retry_after=float(retry_after) if retry_after else None,
            )
        return document

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
