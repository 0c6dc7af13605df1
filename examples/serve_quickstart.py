"""Serving quickstart: boot the solve service, drive it, read its metrics.

The serve layer exposes ``Session.solve_request`` over HTTP/JSON:

1. a :class:`~repro.serve.server.SolveServer` (here on a background thread
   via :class:`~repro.serve.server.ServerThread`; in production use the
   ``repro-serve`` CLI) pools sessions by workload *pattern* and caches
   results by ``(workload, spec, rhs)`` content hash,
2. a :class:`~repro.serve.client.ServeClient` posts solve requests built
   from the same ``to_dict`` serializations the api layer uses,
3. ``GET /v1/metrics`` shows what the shared caches amortized.

Run with:  python examples/serve_quickstart.py
"""

from __future__ import annotations

from repro.api import Workload
from repro.serve import ServeClient, ServeConfig, ServerThread


def main() -> None:
    config = ServeConfig(port=0, concurrency=2, queue_limit=8)
    with ServerThread(config) as server:
        print(f"service listening on http://{config.host}:{server.port}")
        with ServeClient(port=server.port) as client:
            print("health:", client.health())

            # Three load cases of one workload pattern: the pooled session
            # pays for exactly one symbolic analysis, every solve after the
            # first reuses the prepared solver.
            for factor in (1.0, 2.0, 3.0):
                reply = client.solve("heat-2d-quick", spec="cpu-explicit", rhs=factor)
                result = reply["result"]
                print(
                    f"rhs x{factor:g}: {result['iterations']} PCPG iterations, "
                    f"|lam| = {result['lam_norm']:.6f}, cached={reply['cached']}"
                )

            # The identical request again: served from the result cache.
            repeat = client.solve("heat-2d-quick", spec="cpu-explicit", rhs=2.0)
            print(f"repeat request: cached={repeat['cached']}")

            # Inline workloads work too -- the wire schema is Workload.to_dict().
            inline = Workload("heat", 2, (2, 1), 3)
            reply = client.solve(inline.to_dict(), return_primal=True)
            print(
                f"inline workload: {len(reply['result']['primal'])} subdomain "
                f"primal vectors, converged={reply['result']['converged']}"
            )

            metrics = client.metrics()
            print("counters:", metrics["counters"])
            print("result cache:", metrics["result_cache"])
            for pattern in metrics["session_pool"]["patterns"]:
                print(
                    f"pattern {pattern['pattern']}: {pattern['solves']} solves, "
                    f"{pattern['symbolic_analyses']} symbolic analysis(es), "
                    f"{pattern['solver_reuses']} solver reuse(s)"
                )


if __name__ == "__main__":
    main()
