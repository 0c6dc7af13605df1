"""Tests of the baseline comparator and the ``repro-bench`` CLI."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.bench import registry
from repro.bench.baseline import (
    Tolerances,
    compare_directories,
    compare_records,
)
from repro.bench.cli import main
from repro.bench.runner import load_record, run_scenario, write_record

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def record():
    return run_scenario(registry.get("smoke_heat_2d")).record


def _slowed(record, factor=2.0, metric="apply_seconds", category="simulated"):
    """A deep copy of ``record`` with one metric of one point scaled."""
    fresh = copy.deepcopy(record)
    fresh["points"][0][category][metric] *= factor
    return fresh


def test_identical_records_compare_ok(record):
    report = compare_records(record, copy.deepcopy(record))
    assert report.ok
    assert report.exit_code == 0
    assert report.compared == ["smoke_heat_2d"]
    assert "OK" in report.summary()


def test_synthetic_slow_record_is_a_blocking_regression(record):
    report = compare_records(record, _slowed(record, 2.0))
    assert not report.ok
    assert report.exit_code == 1
    (diff,) = report.blocking
    assert diff.kind == "regression"
    assert diff.metric == "simulated.apply_seconds"
    assert diff.rel_change == pytest.approx(1.0)
    assert "regression (blocking)" in report.summary()


def test_improvement_is_reported_but_not_blocking(record):
    report = compare_records(record, _slowed(record, 0.5))
    assert report.ok
    assert report.exit_code == 0
    (diff,) = report.differences
    assert diff.kind == "improvement"


def test_cpu_count_difference_is_one_non_blocking_info_row(record):
    """Wall and derived numbers from different core counts are not comparable."""
    fresh = copy.deepcopy(record)
    cores = record["environment"]["cpu_count"]
    fresh["environment"]["cpu_count"] = cores + 1
    report = compare_records(record, fresh)
    assert report.exit_code == 0
    (diff,) = report.differences
    assert (diff.metric, diff.kind, diff.blocking) == ("environment.cpu_count", "info", False)
    assert (diff.baseline, diff.fresh) == (cores, cores + 1)
    assert "environment.cpu_count" in report.summary()


def test_old_baselines_with_the_removed_axes_still_pair_by_key(record):
    """Committed baselines carry ``batched``/``blocked`` per point; fresh records do not."""
    old = copy.deepcopy(record)
    for point in old["points"]:
        point["batched"], point["blocked"] = True, True
        assert point["key"].endswith("/batched")
    report = compare_records(old, record)
    assert report.ok and report.exit_code == 0
    committed = load_record(REPO_ROOT / "BENCH_smoke_heat_2d.json")
    assert {p["key"] for p in committed["points"]} == {p["key"] for p in record["points"]}
    assert compare_records(committed, record).exit_code == 0


def test_tolerance_absorbs_small_drift(record):
    fresh = _slowed(record, 1.04)
    assert compare_records(record, fresh, Tolerances(simulated_rtol=0.05)).ok
    assert not compare_records(record, fresh, Tolerances(simulated_rtol=0.01)).ok


def test_wall_metrics_gated_only_when_requested(record):
    fresh = _slowed(record, 10.0, category="wall")
    assert compare_records(record, fresh).ok
    report = compare_records(record, fresh, Tolerances(wall_rtol=0.5))
    assert not report.ok
    assert report.blocking[0].metric == "wall.apply_seconds"


def test_invariant_mismatch_is_blocking(record):
    fresh = copy.deepcopy(record)
    fresh["points"][0]["invariants"]["n_lambda"] += 1
    report = compare_records(record, fresh)
    assert report.exit_code == 1
    assert report.blocking[0].metric == "invariants.n_lambda"
    assert report.blocking[0].kind == "mismatch"


def test_point_set_mismatch_is_blocking(record):
    fresh = copy.deepcopy(record)
    dropped = fresh["points"].pop()
    report = compare_records(record, fresh)
    assert not report.ok
    assert any(dropped["key"] == d.point for d in report.blocking)


def test_schema_version_mismatch_is_blocking(record):
    stale = copy.deepcopy(record)
    stale["schema_version"] = 1
    report = compare_records(stale, copy.deepcopy(record))
    assert not report.ok
    assert "schema_version" in report.blocking[0].metric


def test_compare_directories_and_missing_baseline(tmp_path, record):
    results, baselines = tmp_path / "results", tmp_path / "baselines"
    write_record(record, results)
    # no baseline committed yet -> setup error (exit 2), not a regression
    report = compare_directories(results, baselines)
    assert report.exit_code == 2
    assert report.missing

    write_record(record, baselines)
    assert compare_directories(results, baselines).exit_code == 0

    # restricting to a scenario without a fresh record is a setup error too
    report = compare_directories(results, baselines, scenario_names=["heat_2d_sizes"])
    assert report.exit_code == 2


def test_compare_directories_empty_results_dir(tmp_path):
    report = compare_directories(tmp_path, tmp_path)
    assert report.exit_code == 2


def test_corrupt_record_is_a_setup_error_not_a_regression(tmp_path, record):
    """A truncated/garbage BENCH_*.json must yield exit 2, not a crash."""
    results, baselines = tmp_path / "results", tmp_path / "baselines"
    path = write_record(record, results)
    write_record(record, baselines)
    path.write_text('{"schema_version": 2, "points": [')  # truncated JSON
    report = compare_directories(results, baselines)
    assert report.exit_code == 2
    assert any("unreadable record" in m for m in report.missing)

    # a corrupt baseline is classified the same way
    path.write_text(json.dumps(record))
    (baselines / path.name).write_text("[]")  # valid JSON, not a record object
    report = compare_directories(results, baselines)
    assert report.exit_code == 2


# --------------------------------------------------------------------- #
# CLI                                                                    #
# --------------------------------------------------------------------- #
def test_cli_list_enumerates_scenarios(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in registry.names():
        assert name in out
    assert main(["list", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) >= 8
    assert {p["physics"] for p in payload} == {"heat", "elasticity"}


def test_cli_list_tag_selection(capsys):
    assert main(["list", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "smoke_heat_2d" in out
    assert "heat_2d_sizes" not in out


def test_cli_unknown_scenario_or_tag_exits_2(capsys):
    assert main(["run", "no_such_scenario"]) == 2
    assert "unknown scenario" in capsys.readouterr().err
    assert main(["list", "--tag", "no_such_tag"]) == 2
    # The coarse sweep axis and its flag are gone: argparse rejects it.
    with pytest.raises(SystemExit) as exc_info:
        main(["run", "smoke_heat_2d", "--coarse", "dense"])
    assert exc_info.value.code == 2
    assert "--coarse" in capsys.readouterr().err


def test_cli_run_compare_regression_roundtrip(tmp_path, capsys):
    """End-to-end: run -> compare OK -> inject slow record -> compare fails."""
    baselines, results = tmp_path / "baselines", tmp_path / "results"
    assert main(["run", "smoke_heat_2d", "-o", str(baselines)]) == 0
    assert main(["run", "smoke_heat_2d", "-o", str(results)]) == 0
    capsys.readouterr()

    args = ["compare", "--results", str(results), "--baselines", str(baselines)]
    assert main(args) == 0
    assert "OK" in capsys.readouterr().out

    # synthetic regression: make the fresh record 3x slower than the baseline
    path = results / "BENCH_smoke_heat_2d.json"
    fresh = json.loads(path.read_text())
    fresh["points"][-1]["simulated"]["apply_seconds"] *= 3.0
    path.write_text(json.dumps(fresh))
    assert main(args) == 1
    assert "regression" in capsys.readouterr().out

    # a generous tolerance lets the same record pass again
    assert main([*args, "--rtol", "5.0"]) == 0


def test_cli_compare_missing_results_dir(tmp_path, capsys):
    code = main(
        ["compare", "--results", str(tmp_path / "nope"), "--baselines", str(tmp_path)]
    )
    assert code == 2
    assert "MISSING" in capsys.readouterr().out
