"""``BENCHMARK.json`` and the harness name the same workloads."""

from __future__ import annotations

from benchmarks.perf.bench import WORKLOAD_METRICS
from benchmarks.perf.env import load_contract
from benchmarks.perf.stats import tail_percentile
from benchmarks.perf.workloads import MIN_OPS, WORKLOADS, op_count


def test_workloads_match_benchmark_json():
    contract = load_contract()
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    assert contract["paths"] == ["benchmarks/perf"]


def test_op_count_scales_with_seconds_and_is_floored():
    run_seconds = float(load_contract()["run_seconds"])
    for workload in WORKLOADS.values():
        assert op_count(workload, 0.0, run_seconds) == MIN_OPS
        assert op_count(workload, run_seconds, run_seconds) == workload.ops
        assert op_count(workload, 2 * run_seconds, run_seconds) == 2 * workload.ops


def test_a_run_of_record_measures_a_real_tail():
    for workload in WORKLOADS.values():
        assert tail_percentile(workload.ops) > 50.0


def test_result_line_metrics_and_workload_metrics_do_not_overlap():
    contract = load_contract()
    declared = {m["name"] for m in contract["end_to_end"] + contract["per_layer"]}
    assert not declared & set(WORKLOAD_METRICS)
