"""Tests of the sweep records and the plain-text reporting."""

from __future__ import annotations

import pytest

from repro.analysis.reporting import format_series, format_table
from repro.analysis.sweep import SweepResult


def test_sweep_filter_and_column_edge_cases():
    result = SweepResult(["a"], [{"a": 1, "value": 2}, {"a": 2, "value": 4}])
    # filter on an unknown value or key matches nothing (no KeyError)
    assert result.filter(a=99) == []
    assert result.filter(nonexistent=1) == []
    # multiple criteria are ANDed
    assert result.filter(a=2, value=4) == [{"a": 2, "value": 4}]
    # column is strict: every record must carry the requested key
    assert result.column("a") == [1, 2]
    with pytest.raises(KeyError):
        result.column("missing")


def test_sweep_series_extraction_sorted():
    result = SweepResult(
        ["n", "mode"],
        [{"n": n, "mode": "m", "t": float(n) ** 2} for n in (4, 2, 8)]
        + [{"n": 3, "mode": "other", "t": 0.0}],
    )
    series = result.series("n", "t", mode="m")
    assert series == [(2, 4.0), (4, 16.0), (8, 64.0)]


def test_format_table_alignment_and_title():
    text = format_table(
        ["name", "value"], [["syrk", 1.5], ["trsm", 20]], title="Table X"
    )
    lines = text.splitlines()
    assert lines[0] == "Table X"
    assert "name" in lines[1] and "value" in lines[1]
    assert len(lines) == 5
    assert all(len(line) == len(lines[1]) for line in lines[2:])


def test_format_series_output():
    text = format_series(
        {"legacy": [(256, 1.5), (512, 3.0)]},
        x_label="dofs",
        y_label="ms",
        title="Fig 3",
    )
    assert "Fig 3" in text
    assert "[legacy]" in text
    assert "256" in text and "512" in text
