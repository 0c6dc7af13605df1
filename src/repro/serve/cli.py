"""The ``repro-serve`` entry point.

.. code-block:: console

    $ repro-serve --port 8421 --concurrency 2 --queue-limit 8
    repro-serve listening on http://127.0.0.1:8421
      POST /v1/solve   GET /v1/health   GET /v1/metrics

Capacity knobs map one-to-one onto :class:`repro.serve.server.ServeConfig`.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from repro.observe.log import configure_logging
from repro.serve.server import ServeConfig, SolveServer

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    defaults = ServeConfig()
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve Total FETI solves over HTTP/JSON.",
    )
    parser.add_argument("--host", default=defaults.host, help="bind address")
    parser.add_argument(
        "--port", type=int, default=defaults.port, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--spec",
        default=None,
        help="default solver spec preset of pooled sessions (requests may override)",
    )
    parser.add_argument(
        "--concurrency",
        type=int,
        default=defaults.concurrency,
        help="solves running at once (each on its connection's handler thread)",
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=defaults.queue_limit,
        help="admitted-but-unfinished solves beyond which requests get 429",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=defaults.timeout_seconds,
        help="default per-request solve timeout in seconds (504 past it)",
    )
    parser.add_argument(
        "--pool-size",
        type=int,
        default=defaults.pool_size,
        help="session pool capacity in workload patterns",
    )
    parser.add_argument(
        "--cache-size",
        type=int,
        default=defaults.cache_size,
        help="result cache capacity (0 disables caching)",
    )
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="info",
        help="structured log threshold (access logs are emitted at info)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured logs as JSON lines instead of key=value text",
    )
    return parser


def _serve(config: ServeConfig) -> None:
    server = SolveServer(config)
    server.start()
    print(f"repro-serve listening on http://{config.host}:{server.port}")
    print(
        "  POST /v1/solve   GET /v1/health   GET /v1/metrics   "
        "GET /v1/metrics/prometheus"
    )
    sys.stdout.flush()
    try:
        server.serve_forever()
    finally:
        server.close()


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(level=args.log_level, json_mode=args.log_json)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        spec=args.spec,
        concurrency=args.concurrency,
        queue_limit=args.queue_limit,
        timeout_seconds=args.timeout,
        pool_size=args.pool_size,
        cache_size=args.cache_size,
    )
    with contextlib.suppress(KeyboardInterrupt):
        _serve(config)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
