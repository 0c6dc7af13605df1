"""repro.serve — the solver-as-a-service HTTP layer.

A stdlib-only threaded HTTP/JSON front over
:meth:`repro.api.Session.solve_request`, which each request runs on the
handler thread of the connection that sent it:

- :mod:`repro.serve.protocol` — the wire envelope (reusing the api layer's
  ``to_dict`` schemas), pattern keys and request fingerprints;
- :mod:`repro.serve.pool` — pattern-keyed session pool sharing symbolic
  analyses across same-pattern requests;
- :mod:`repro.serve.cache` — result cache keyed by the
  ``(workload, spec, rhs)`` content hash;
- :mod:`repro.serve.server` — routes, admission control (429 +
  ``Retry-After``), per-request timeouts (504 from one deadline thread)
  and metrics;
- :mod:`repro.serve.client` — a blocking keep-alive client;
- :mod:`repro.serve.loadgen` — the closed-loop load generator behind the
  ``serve_load`` bench scenario;
- :mod:`repro.serve.cli` — the ``repro-serve`` entry point.

.. code-block:: python

    from repro.serve import ServeConfig, ServerThread, ServeClient

    with ServerThread(ServeConfig(port=0)) as server:
        with ServeClient(port=server.port) as client:
            reply = client.solve("heat-small", rhs=2.0)
"""

from __future__ import annotations

from repro.serve.cache import ResultCache
from repro.serve.client import ServeClient, ServeError
from repro.serve.loadgen import LoadReport, run_load
from repro.serve.pool import SessionPool
from repro.serve.protocol import (
    ProtocolError,
    SolveRequest,
    parse_solve_request,
    pattern_key,
    request_fingerprint,
)
from repro.serve.server import ServeConfig, ServerThread, SolveServer

__all__ = [
    "LoadReport",
    "ProtocolError",
    "ResultCache",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServerThread",
    "SessionPool",
    "SolveRequest",
    "SolveServer",
    "parse_solve_request",
    "pattern_key",
    "request_fingerprint",
    "run_load",
]
