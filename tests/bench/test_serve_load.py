"""Tests of the serve_load bench scenario."""

import pytest

from repro.bench import registry
from repro.bench.runner import run_scenario
from repro.bench.serve_load import ServeScenario


@pytest.fixture(scope="module")
def result():
    return run_scenario(registry.get("serve_load"))


def test_serve_load_is_registered_and_quick():
    scenario = registry.get("serve_load")
    assert isinstance(scenario, ServeScenario)
    assert "quick" in scenario.tags
    # One unit boots one server and measures both passes.
    assert scenario.n_points() == 1
    assert list(scenario.units()) == ["cold+warm"]
    assert len(scenario.request_mix()) == len(scenario.presets) * len(
        scenario.rhs_factors
    )


def test_record_has_cold_and_warm_points(result):
    keys = [p["key"] for p in result.record["points"]]
    assert keys == ["cold", "warm"]
    n_requests = len(registry.get("serve_load").request_mix())
    assert result.record["scenario"]["presets"] == ["heat-2d-quick", "elasticity-2d-quick"]
    for point in result.record["points"]:
        assert point["invariants"]["requests"] == n_requests
        assert point["invariants"]["errors"] == 0
    cold, warm = result.record["points"]
    assert cold["invariants"]["cache_hits"] == 0
    assert warm["invariants"]["cache_hits"] == n_requests


def test_warm_pass_is_measurably_faster_than_cold(result):
    cold, warm = result.record["points"]
    assert warm["wall"]["p50_seconds"] < cold["wall"]["p50_seconds"]


def test_simulated_metrics_are_identical_across_passes(result):
    """Warm responses replay the cold payloads, so the deterministic
    (comparator-gated) metrics must agree between the two points."""
    cold, warm = result.record["points"]
    for metric, value in cold["simulated"].items():
        assert warm["simulated"][metric] == pytest.approx(value)
    assert cold["simulated"]["pcpg_iterations"] > 0


def test_record_is_comparator_stable(result):
    """A re-run compares clean against itself (the CI gate contract)."""
    from repro.bench.baseline import compare_records

    again = run_scenario(registry.get("serve_load")).record
    report = compare_records(result.record, again)
    assert report.exit_code == 0, report.summary()
