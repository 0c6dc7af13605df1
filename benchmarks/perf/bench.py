"""One benchmark run: one workload, one seed, timed *or* traced.

``run.py`` pins the environment and calls :func:`main`.  The last line of
standard output is the result object the benchmark contract defines; the
full document (stamp, sample counts, percentile used) and the spans are
written under ``benchmarks/perf/out/``.
"""

from __future__ import annotations

import argparse
import json
from typing import Any

import numpy as np
from repro.api.workload import build_problem

from . import env, serve_bench, stats
from .gauge import REFERENCE_KERNEL_S, SpeedGauge, Timed
from .solve_bench import (
    WARMUP_OPS,
    LayerProfile,
    Oracle,
    RawOp,
    Rig,
    check_step,
    layer_profile,
    load_factors,
    make_problem,
    run_ops,
    setup_rig,
    sparse_facade_profile,
)
from .stats import OpResult
from .workloads import WORKLOADS, BenchWorkload, op_count

__all__ = ["WORKLOAD_METRICS", "main"]

#: Per-layer metrics only one workload has (name -> unit).  They are printed
#: and written to the result document where they apply and are absent (or
#: "skipped", with the reason) elsewhere.  ``BENCHMARK.json`` does not declare
#: them: its result line carries every declared metric on every workload.
WORKLOAD_METRICS = {
    "runtime.parallel_efficiency": "ratio",
    "runtime.preprocess_speedup": "ratio",
    "serve.overhead_s": "s",
    "serve.solve_s": "s",
    "serve.response_bytes": "bytes",
    "serve.rejected_429": "count",
    "serve.timeouts_504": "count",
    "serve.coalesced_batches": "count",
    "serve.rps_2clients": "1/s",
    "serve.concurrency_scaling": "ratio",
}

#: What every run function returns: the metrics of record (times at reference
#: speed), the wall each time-valued one was measured as, and the details.
RunResult = tuple[dict[str, float], dict[str, float], dict[str, Any]]


# --------------------------------------------------------------------- #
# End-to-end (untraced) runs                                             #
# --------------------------------------------------------------------- #
def _end_to_end_metrics(setups: list[Timed], ops: list[OpResult], peak_rss_mb: float) -> RunResult:
    """Metrics of one measured window of ``ops`` and its fresh set-ups."""
    tail_q = stats.tail_percentile(len(ops))

    def metrics(setup_s: list[float], op_s: list[float]) -> dict[str, float]:
        return {
            "setup_s": stats.median(setup_s),
            "op_s.p50": stats.median(op_s),
            "op_s.tail": stats.percentile(op_s, tail_q),
            # Closed loop, operations back to back: the window is their sum.
            "ops_per_s": stats.account(ops, sum(op_s)).ops_per_s,
        }

    wall = metrics([s.seconds for s in setups], [op.seconds for op in ops])
    values = metrics([s.at_reference for s in setups], [op.at_reference for op in ops])
    values["peak_rss_mb"] = peak_rss_mb
    accounting = stats.account(ops, sum(op.seconds for op in ops))
    detail = {
        "n": len(ops),
        "tail_percentile": tail_q,
        "setup_reps": len(setups),
        "attempted": accounting.attempted,
        "failed": accounting.failed,
        "iterations": sorted({op.iterations for op in ops}),
    }
    return values, wall, detail


def _oracle_checks(rig: Rig, kind: str, ops: list[RawOp], check_factor: float) -> list[bool]:
    """Per operation: does its answer agree with the independent oracle?

    A solve returns its primal, so every solve is checked.  A schedule keeps
    only records, so one extra step at ``check_factor`` stands for all.
    """
    oracle = Oracle(rig.session.problem(rig.workload))
    if kind == "step":
        return [check_step(rig, oracle, check_factor)] * len(ops)
    return [oracle.passes(op.primal, op.factor) for op in ops]


def _checked(ops: list[RawOp], checks: list[bool]) -> list[OpResult]:
    return [
        OpResult(op.seconds, op.converged, ok, iterations=op.iterations, slowdown=op.slowdown)
        for op, ok in zip(ops, checks)
    ]


def _end_to_end_inprocess(bw: BenchWorkload, seed: int, n_ops: int, gauge: SpeedGauge) -> RunResult:
    *factors, check_factor = load_factors(seed, WARMUP_OPS + n_ops + 1)
    setups: list[Timed] = []
    rig = None
    for _ in range(bw.setup_reps):
        if rig is not None:
            rig.close()
        rig = setup_rig(bw, gauge)
        setups.append(rig.setup_total())
    assert rig is not None
    try:
        raw = run_ops(rig, bw.kind, factors, gauge)[WARMUP_OPS:]
        # Read the high-water mark before the oracle's direct solve adds to it.
        peak = env.peak_rss_mb()
        checks = _oracle_checks(rig, bw.kind, raw, check_factor)
    finally:
        rig.close()
    return _end_to_end_metrics(setups, _checked(raw, checks), peak)


class _ServeChecker:
    """Checks served replies: one against the oracle, the rest by linearity."""

    def __init__(self, oracle: Oracle) -> None:
        self.oracle = oracle
        self.lam_norm_ref: float | None = None

    def check_primal(self, reply: serve_bench.Reply, factor: float) -> bool:
        """The ``return_primal`` request: relative primal error vs the oracle."""
        if reply.status != 200:
            return False
        result = reply.json()["result"]
        primal = np.concatenate([np.asarray(u, dtype=float) for u in result["primal"]])
        if not (result["converged"] and self.oracle.passes(primal, factor)):
            return False
        self.lam_norm_ref = result["lam_norm"] / factor
        return True

    def result(self, reply: serve_bench.Reply, factor: float) -> OpResult:
        """Any other request: a 200, converged, and ``|lambda|`` linear in the
        load factor relative to the oracle-checked reply."""
        converged = checked = False
        iterations = 0
        if reply.status == 200 and self.lam_norm_ref is not None:
            result = reply.json()["result"]
            converged, iterations = bool(result["converged"]), int(result["iterations"])
            scaled = result["lam_norm"] / factor
            checked = abs(scaled - self.lam_norm_ref) <= 1e-6 * self.lam_norm_ref
        seconds = reply.end - reply.start
        return OpResult(seconds, converged, checked, reply.status, iterations, reply.slowdown)


def _start_server(
    bw: BenchWorkload, body: bytes, gauge: SpeedGauge
) -> tuple[serve_bench.Server, serve_bench.Reply, Timed]:
    """Spawn a server and answer one request: nothing -> warm."""
    watch = gauge.stopwatch()
    server = serve_bench.Server(bw.server_args)
    try:
        client = serve_bench.ServeClient(server.port)
        try:
            first = client.request("POST", "/v1/solve", body)
        finally:
            client.close()
    except BaseException:
        server.close()
        raise
    return server, first, watch.stop()


def _end_to_end_serve(bw: BenchWorkload, seed: int, n_ops: int, gauge: SpeedGauge) -> RunResult:
    w, spec = make_problem(bw)
    first_factor, *factors = load_factors(seed, 1 + WARMUP_OPS + n_ops)
    checker = _ServeChecker(Oracle(build_problem(w)))
    first_body = serve_bench.solve_body(w, spec, first_factor, return_primal=True)
    bodies = [serve_bench.solve_body(w, spec, f) for f in factors]
    setups: list[Timed] = []
    server = None
    for _ in range(bw.setup_reps):
        if server is not None:
            server.close()
        server, first, setup = _start_server(bw, first_body, gauge)
        setups.append(setup)
    assert server is not None
    try:
        oracle_ok = checker.check_primal(first, first_factor)
        replies = serve_bench.closed_loop(server.port, bodies, gauge)[WARMUP_OPS:]
    finally:
        peak = server.close()
    ops = [checker.result(r, f) for r, f in zip(replies, factors[WARMUP_OPS:])]
    values, wall, detail = _end_to_end_metrics(setups, ops, peak)
    detail["oracle_ok"] = oracle_ok
    return values, wall, detail


# --------------------------------------------------------------------- #
# Traced (per-layer) runs                                                #
# --------------------------------------------------------------------- #
def _write_spans(bw: BenchWorkload, profile: LayerProfile) -> None:
    env.OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = env.OUT_DIR / f"trace_{bw.name}.json"
    path.write_text(json.dumps([vars(span) for span in profile.spans]))


def _profile(rig: Rig, kind: str, factors: list[float], gauge: SpeedGauge) -> LayerProfile:
    """Half the window untraced, a quarter each tracer-enabled and traced."""
    n = len(factors) - WARMUP_OPS
    return layer_profile(
        rig, kind, factors[: WARMUP_OPS + max(5, n // 2)], max(5, n // 4), gauge
    )


def _traced_inprocess(bw: BenchWorkload, seed: int, n_ops: int, gauge: SpeedGauge) -> RunResult:
    *factors, check_factor = load_factors(seed, WARMUP_OPS + n_ops + 1)
    rig = setup_rig(bw, gauge)
    try:
        profile = _profile(rig, bw.kind, factors, gauge)
        checks = _oracle_checks(rig, bw.kind, profile.ops, check_factor)
    finally:
        rig.close()
    values, wall = dict(profile.metrics), dict(profile.wall)
    sparse, sparse_wall = sparse_facade_profile(build_problem(rig.workload), gauge)
    values.update(sparse)
    wall.update(sparse_wall)
    skipped: dict[str, str] = {}
    if bw.threaded_workers > env.nproc():
        reason = f"needs {bw.threaded_workers} workers, nproc={env.nproc()}"
        skipped = {"runtime.parallel_efficiency": reason, "runtime.preprocess_speedup": reason}
    elif bw.threaded_workers:
        # The same problem and factors on the runtime executor; the profile
        # above is its plain single-threaded baseline.
        threaded_rig = setup_rig(bw, gauge, execution=f"threads:{bw.threaded_workers}")
        try:
            threaded = _profile(threaded_rig, bw.kind, factors, gauge)
        finally:
            threaded_rig.close()
        values["runtime.parallel_efficiency"] = profile.op_p50 / (
            bw.threaded_workers * threaded.op_p50
        )
        values["runtime.preprocess_speedup"] = profile.preprocess_s / threaded.preprocess_s
    _write_spans(bw, profile)
    accounting = stats.account(_checked(profile.ops, checks), 1.0)
    detail = {
        "attempted": accounting.attempted,
        "failed": accounting.failed if profile.iterations_match else accounting.attempted,
        "iterations_match": profile.iterations_match,
        "skipped": skipped,
    }
    return values, wall, detail


def _prometheus_value(text: str, name: str) -> float:
    for line in text.splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    return 0.0


def _traced_serve(bw: BenchWorkload, seed: int, n_ops: int, gauge: SpeedGauge) -> RunResult:
    w, spec = make_problem(bw)
    half = n_ops // 2
    first_factor, *factors = load_factors(seed, 1 + WARMUP_OPS + 2 * half)
    # The same problem through the path a served request takes in-process
    # (SolveQueue.submit), so the solve layers have their numbers here too.
    rig = setup_rig(bw, gauge)
    try:
        profile = _profile(rig, "queue", factors[: WARMUP_OPS + min(half, 60)], gauge)
    finally:
        rig.close()
    _write_spans(bw, profile)
    values, wall = dict(profile.metrics), dict(profile.wall)
    sparse, sparse_wall = sparse_facade_profile(build_problem(w), gauge)
    values.update(sparse)
    wall.update(sparse_wall)

    checker = _ServeChecker(Oracle(build_problem(w)))
    bodies = [serve_bench.solve_body(w, spec, f) for f in factors]
    one_bodies, two_bodies = bodies[: WARMUP_OPS + half], bodies[WARMUP_OPS + half :]
    server, first, _ = _start_server(
        bw, serve_bench.solve_body(w, spec, first_factor, return_primal=True), gauge
    )
    try:
        oracle_ok = checker.check_primal(first, first_factor)
        one = serve_bench.closed_loop(server.port, one_bodies, gauge)[WARMUP_OPS:]
        # Ungated second pass, 2 closed-loop clients: feeds per-layer metrics only.
        two = serve_bench.closed_loop(server.port, two_bodies, gauge, clients=2)
        client = serve_bench.ServeClient(server.port)
        try:
            counters = client.get_json("/v1/metrics")
            prometheus = client.request("GET", "/v1/metrics/prometheus").body.decode()
        finally:
            client.close()
    finally:
        server.close()
    one_ops = [checker.result(r, f) for r, f in zip(one, factors[WARMUP_OPS:])]
    two_ops = [checker.result(r, f) for r, f in zip(two, factors[WARMUP_OPS + half :])]
    two_window = max(r.end for r in two) - min(r.start for r in two)
    # The server's own clock reads wall seconds of the same block as the client's.
    served = [Timed(r.json()["solve_seconds"], r.slowdown) for r in one if r.status == 200]

    def serve_times(one_s: list[float], served_s: list[float], window: float) -> dict[str, float]:
        return {
            "serve.overhead_s": stats.median(one_s) - stats.median(served_s),
            "serve.solve_s": stats.median(served_s),
            "serve.rps_2clients": stats.account(two_ops, window).ops_per_s,
        }

    wall.update(
        serve_times([op.seconds for op in one_ops], [t.seconds for t in served], two_window)
    )
    one_s = [op.at_reference for op in one_ops]
    values.update(
        serve_times(one_s, [t.at_reference for t in served], two_window / two[0].slowdown)
    )
    values.update(
        {
            "api.op_s_drift": stats.drift(one_s),
            "memory.resident_bytes": float(counters["session_pool"]["resident_bytes"]),
            "serve.response_bytes": stats.median([len(r.body) for r in one]),
            "serve.rejected_429": float(counters["counters"].get("solve_rejected_429", 0)),
            "serve.timeouts_504": float(counters["counters"].get("solve_timeouts_504", 0)),
            "serve.coalesced_batches": _prometheus_value(
                prometheus, "repro_queue_coalesced_batches_total"
            ),
            "serve.concurrency_scaling": values["serve.rps_2clients"]
            / stats.account(one_ops, sum(one_s)).ops_per_s,
        }
    )
    all_pass = oracle_ok and profile.iterations_match
    failed = sum(stats.account(ops, 1.0).failed for ops in (one_ops, two_ops))
    attempted = len(one_ops) + len(two_ops)
    detail = {
        "attempted": attempted,
        "failed": failed if all_pass else attempted,
        "iterations_match": profile.iterations_match,
        "oracle_ok": oracle_ok,
    }
    return values, wall, detail


# --------------------------------------------------------------------- #
# Entry point                                                            #
# --------------------------------------------------------------------- #
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/perf/run.py",
        description="One wall-clock benchmark run of one workload.",
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    contract = env.load_contract()
    run_seconds = float(contract["run_seconds"])
    seconds = run_seconds if args.seconds is None else args.seconds
    bw = WORKLOADS[args.workload]
    if bw.workers > env.nproc():
        print(f"skipped: {bw.name} needs {bw.workers} workers, nproc={env.nproc()}")
        return env.SKIPPED_EXIT_CODE

    declared = contract["per_layer" if args.trace else "end_to_end"]
    serve = bw.kind == "serve"
    if args.trace:
        run = _traced_serve if serve else _traced_inprocess
    else:
        run = _end_to_end_serve if serve else _end_to_end_inprocess
    gauge = SpeedGauge()
    values, wall, detail = run(bw, args.seed, op_count(bw, seconds, run_seconds), gauge)

    out_of_step = {m["name"] for m in declared} ^ (set(values) - set(WORKLOAD_METRICS))
    if out_of_step:
        raise SystemExit(f"metrics out of step with BENCHMARK.json: {sorted(out_of_step)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    workload_metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in WORKLOAD_METRICS.items()
        if name in values
    }
    correct = detail["failed"] == 0 and detail.get("oracle_ok", True)
    stamp = env.stamp(args.seed)
    # The kernel's own seconds: a numpy/BLAS change that moves them shows here.
    kernel_s = gauge.kernel_seconds
    stamp["gauge"] = {
        "reference_kernel_s": REFERENCE_KERNEL_S,
        "kernel_s": {"min": min(kernel_s), "median": stats.median(kernel_s), "max": max(kernel_s)},
        "machine_slowdown": stats.median(kernel_s) / REFERENCE_KERNEL_S,
    }
    document = {
        "workload": bw.name,
        "trace": args.trace,
        "seconds": seconds,
        "stamp": stamp,
        "correct": correct,
        "failed_ops_share": detail["failed"] / detail["attempted"],
        **detail,
        "metrics": metrics,
        "workload_metrics": workload_metrics,
        "wall": wall,
    }
    env.OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = env.OUT_DIR / f"result_{bw.name}_trace{args.trace}.json"
    out.write_text(json.dumps(document, indent=1))

    print(f"# {bw.name} trace={args.trace} " + json.dumps(stamp))
    print("# " + json.dumps(detail))
    for line in _metric_lines(document):
        print(line)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": detail["attempted"],
                "failed": detail["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def _metric_lines(document: dict[str, Any]) -> list[str]:
    """Every metric of a result document by name, with its value and unit.

    Times are at reference speed and show the wall they were measured as
    beside them; a metric that was skipped shows why in place of a number.
    """
    wall = document["wall"]
    lines = []
    for name, metric in {**document["metrics"], **document["workload_metrics"]}.items():
        line = f"{name:36s} {metric['value']:<12.6g} {metric['unit']}"
        if name in wall:
            line += f"  (wall {wall[name]:.6g} {metric['unit']})"
        lines.append(line)
    for name, reason in document.get("skipped", {}).items():
        lines.append(f"{name:36s} skipped ({reason})")
    lines.append(f"{'failed_ops_share':36s} {document['failed_ops_share']:<12.6g} fraction")
    return lines
