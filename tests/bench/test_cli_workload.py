"""Tests of the API-facing CLI surface: ``run --workload`` and ``compare --json``."""

from __future__ import annotations

import json

import pytest

from repro.api import Workload, workload_preset
from repro.bench.cli import main
from repro.bench.runner import load_record


def test_run_workload_preset_writes_a_record(tmp_path, capsys):
    assert main(["run", "--workload", "heat-2d-quick", "-o", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "workload_heat-2d-quick" in out
    record = load_record(tmp_path / "BENCH_workload_heat-2d-quick.json")
    preset = workload_preset("heat-2d-quick")
    assert record["scenario"]["physics"] == preset.physics
    assert record["points"][0]["approach"] == "expl mkl"
    assert record["points"][0]["invariants"]["n_subdomains"] == preset.n_subdomains


def test_run_workload_json_file_uses_the_api_serialization(tmp_path, capsys):
    workload = Workload("heat", 2, (2, 1), 2)
    path = tmp_path / "custom.json"
    path.write_text(workload.to_json())
    out_dir = tmp_path / "results"
    assert main(["run", "--workload", str(path), "-o", str(out_dir)]) == 0
    record = load_record(out_dir / "BENCH_workload_custom.json")
    assert record["points"][0]["invariants"]["n_subdomains"] == 2


def test_run_workload_accepts_approach_overrides(tmp_path):
    assert (
        main(
            [
                "run",
                "--workload",
                "heat-2d-quick",
                "--approach",
                "impl mkl",
                "--approach",
                "expl mkl",
                "-o",
                str(tmp_path),
            ]
        )
        == 0
    )
    record = load_record(tmp_path / "BENCH_workload_heat-2d-quick.json")
    assert [p["approach"] for p in record["points"]] == ["impl mkl", "expl mkl"]


def test_run_precision_override_stamps_every_point(tmp_path):
    assert (
        main(["run", "smoke_heat_2d", "--precision", "fp32", "-o", str(tmp_path)])
        == 0
    )
    record = load_record(tmp_path / "BENCH_smoke_heat_2d.json")
    assert record["points"], "the override must not drop grid points"
    assert all(p["precision"] == "fp32" for p in record["points"])
    assert all(p["key"].endswith("/fp32") for p in record["points"])


def test_run_precision_rejects_a_policy_outside_the_registry(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["run", "smoke_heat_2d", "--precision", "fp32" + "_ir", "-o", str(tmp_path)])
    assert exc_info.value.code == 2
    assert "choose from 'fp64', 'fp32'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_list_json_shows_the_precision_axis(capsys):
    assert main(["list", "precision_phase", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["axes"]["precision"] == ["fp64", "fp32"]


def test_list_json_shows_the_backends_apply_phase_runs(capsys):
    assert main(["list", "apply_phase", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(payload[0]["axes"]) == ["approach", "cells", "precision", "subdomains"]


def test_run_workload_rejects_unknown_sources_and_combinations(tmp_path, capsys):
    assert main(["run", "--workload", "no-such-preset", "-o", str(tmp_path)]) == 2
    assert "registered presets" in capsys.readouterr().err
    assert main(["run", "--workload", "heat-2d-quick", "--quick"]) == 2
    assert "cannot be combined" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"physics": "plasma", "dim": 2, "subdomains": [1, 1], "cells": 1}))
    assert main(["run", "--workload", str(bad), "-o", str(tmp_path)]) == 2
    assert "invalid workload" in capsys.readouterr().err


def test_run_approach_without_workload_is_rejected(capsys):
    assert main(["run", "--quick", "--approach", "impl mkl"]) == 2
    assert "only applies to an ad-hoc --workload run" in capsys.readouterr().err


def test_run_workload_rejects_unknown_approach(tmp_path, capsys):
    assert (
        main(["run", "--workload", "heat-2d-quick", "--approach", "abacus", "-o", str(tmp_path)])
        == 2
    )
    assert "valid approaches" in capsys.readouterr().err


@pytest.fixture()
def comparable_dirs(tmp_path):
    """A fresh-results/baselines pair for one tiny scenario."""
    results, baselines = tmp_path / "results", tmp_path / "baselines"
    assert main(["run", "smoke_heat_2d", "-o", str(results)]) == 0
    assert main(["run", "smoke_heat_2d", "-o", str(baselines)]) == 0
    return results, baselines


def test_compare_json_reports_ok(comparable_dirs, capsys):
    results, baselines = comparable_dirs
    capsys.readouterr()
    code = main(
        [
            "compare",
            "smoke_heat_2d",
            "--results",
            str(results),
            "--baselines",
            str(baselines),
            "--json",
        ]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["ok"] is True
    assert report["exit_code"] == 0
    assert report["compared"] == ["smoke_heat_2d"]
    assert report["differences"] == []


def test_compare_json_reports_regressions_machine_readably(comparable_dirs, capsys):
    results, baselines = comparable_dirs
    path = results / "BENCH_smoke_heat_2d.json"
    record = json.loads(path.read_text())
    record["points"][0]["simulated"]["apply_seconds"] *= 10.0
    path.write_text(json.dumps(record))
    capsys.readouterr()
    code = main(
        [
            "compare",
            "smoke_heat_2d",
            "--results",
            str(results),
            "--baselines",
            str(baselines),
            "--json",
        ]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["ok"] is False
    kinds = {d["kind"] for d in report["differences"]}
    assert "regression" in kinds
    blocking = [d for d in report["differences"] if d["blocking"]]
    assert blocking and blocking[0]["metric"] == "simulated.apply_seconds"
    assert blocking[0]["rel_change"] == pytest.approx(9.0)


@pytest.mark.parametrize("flag", [["--executor", "threads"], ["--workers", "2"]])
def test_run_has_no_execution_flags(flag, capsys):
    """The bench sweeps no execution: ``run`` refuses the old flags."""
    with pytest.raises(SystemExit) as exc_info:
        main(["run", "--quick", *flag])
    assert exc_info.value.code == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
