"""The ``serve_load`` scenario: close-loop load against the HTTP service.

Unlike the grid scenarios, this one measures the *service*: it boots a
:class:`~repro.serve.server.SolveServer` on an ephemeral port, drives it
with concurrent closed-loop clients through the request mix twice — a
**cold** pass (every ``(workload, spec, rhs)`` fingerprint unseen, so every
request runs a real solve) and a **warm** pass (the identical mix again, so
every request is a result-cache hit) — and records p50/p95/p99 latency and
throughput for both passes.

The scenario is a single unit: it boots one server and measures two
points, ``cold`` and ``warm``.  Simulated solve metrics (ledger
preprocessing/apply seconds, PCPG iterations — deterministic replays) are
comparator-gated at the usual rtol; wall-clock latencies and throughput are
recorded but not gated by default.  The run itself enforces the serving
invariants: zero errors, a fully-hit warm pass, and warm p50 strictly below
cold p50 (a cache hit must beat a real solve).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.api.workload import Workload
from repro.bench.registry import Scenario, register
from repro.bench.runner import InvariantViolation
from repro.serve.loadgen import LoadReport, run_load
from repro.serve.server import ServeConfig, ServerThread

__all__ = ["ServeScenario", "SERVE_PRESETS", "SERVE_RHS_FACTORS"]

#: Workload presets of the default request mix (two sparsity patterns, so
#: the session pool demonstrably shares symbolic analyses within each).
SERVE_PRESETS = ("heat-2d-quick", "elasticity-2d-quick")

#: Scalar load factors multiplying each preset (distinct cache fingerprints).
SERVE_RHS_FACTORS = (1.0, 2.0, 3.0)


@dataclass
class ServeScenario(Scenario):
    """A load-generation scenario running against a live solve service."""

    presets: tuple[str, ...] = SERVE_PRESETS
    rhs_factors: tuple[float, ...] = SERVE_RHS_FACTORS
    clients: int = 2
    concurrency: int = 2
    queue_limit: int = 8
    serve_spec: str | None = None

    def request_mix(self) -> list[dict[str, Any]]:
        """The kwargs of every request in one pass (cold == warm)."""
        mix = []
        for preset in self.presets:
            for factor in self.rhs_factors:
                entry: dict[str, Any] = {"workload": preset, "rhs": factor}
                if self.serve_spec is not None:
                    entry["spec"] = self.serve_spec
                mix.append(entry)
        return mix

    def units(self) -> dict[str, None]:
        return {"cold+warm": None}

    def measure(self, unit: None) -> list[dict[str, Any]]:
        """Boot a service and drive the cold and the warm pass through it."""
        mix = self.request_mix()
        config = ServeConfig(
            port=0,
            spec=self.serve_spec,
            concurrency=self.concurrency,
            queue_limit=self.queue_limit,
        )
        with ServerThread(config) as server:
            cold = run_load(config.host, server.port, mix, clients=self.clients, keep_replies=True)
            warm = run_load(config.host, server.port, mix, clients=self.clients, keep_replies=True)
        return [_point("cold", cold), _point("warm", warm)]

    def check(self, rows: list[dict[str, Any]]) -> None:
        """The serving invariants every run must satisfy."""
        n_requests = len(self.request_mix())
        for row, hits in zip(rows, (0, n_requests)):
            label, invariants = row["key"], row["invariants"]
            if invariants["errors"] or row["timeouts_504"]:
                raise InvariantViolation(
                    f"scenario {self.name!r}: {label} pass had "
                    f"{invariants['errors']} error(s) and {row['timeouts_504']} "
                    "timeout(s); a healthy service completes the whole mix"
                )
            if invariants["requests"] != n_requests:
                raise InvariantViolation(
                    f"scenario {self.name!r}: {label} pass completed "
                    f"{invariants['requests']}/{n_requests} requests"
                )
            if invariants["cache_hits"] != hits:
                raise InvariantViolation(
                    f"scenario {self.name!r}: {label} pass hit the result "
                    f"cache {invariants['cache_hits']} time(s), expected {hits} — "
                    "the fingerprint keying is broken"
                )
        cold_p50, warm_p50 = (row["wall"]["p50_seconds"] for row in rows)
        if not warm_p50 < cold_p50:
            raise InvariantViolation(
                f"scenario {self.name!r}: warm (cache-hit) p50 "
                f"{warm_p50 * 1e3:.2f} ms is not below cold p50 "
                f"{cold_p50 * 1e3:.2f} ms — the result cache buys nothing"
            )

    def derived(self, rows: list[dict[str, Any]]) -> dict[str, float]:
        """None: the rows pair no grid axes, and the warm/cold p50 ratio
        read 12-43 from run to run (``check`` keeps warm < cold)."""
        return {}


def _point(key: str, report: LoadReport) -> dict[str, Any]:
    """The record point of one pass (plus its 504 count for the check)."""
    percentiles = report.latency_percentiles()
    simulated = {
        "preprocessing_seconds": 0.0,
        "dual_apply_seconds": 0.0,
        "pcpg_iterations": 0.0,
    }
    for reply in report.replies:
        result = reply.get("result", {})
        simulated["preprocessing_seconds"] += result.get("preprocessing_seconds", 0.0)
        simulated["dual_apply_seconds"] += result.get("dual_apply_seconds", 0.0)
        simulated["pcpg_iterations"] += float(result.get("iterations", 0))
    return {
        "key": key,
        "invariants": {
            "requests": report.completed,
            "errors": report.errors,
            "cache_hits": report.cache_hits,
        },
        "simulated": simulated,
        "wall": {
            "p50_seconds": percentiles.get("p50"),
            "p95_seconds": percentiles.get("p95"),
            "p99_seconds": percentiles.get("p99"),
            "mean_seconds": percentiles.get("mean"),
            "max_seconds": percentiles.get("max"),
            "throughput_per_second": report.throughput,
            "wall_seconds": report.wall_seconds,
        },
        "timeouts_504": report.timeouts_504,
    }


def _register_default() -> None:
    register(
        ServeScenario(
            name="serve_load",
            description=(
                "HTTP service under concurrent closed-loop load: cold solves "
                "vs warm result-cache hits, two workload patterns"
            ),
            base=Workload.from_preset(SERVE_PRESETS[0]),
            tags=frozenset({"quick", "serve", "wall"}),
            expected={"n_subdomains": 4, "kernel_dim": 1},
        )
    )


_register_default()
