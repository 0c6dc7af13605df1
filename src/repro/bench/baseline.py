"""Baseline comparison: diff fresh benchmark records against committed ones.

A baseline is a committed ``BENCH_<scenario>.json`` record; a fresh record is
produced by :func:`repro.bench.runner.run_scenario` (usually into a separate
results directory).  The comparator pairs the two records point-by-point and
classifies every metric difference:

* **simulated** metrics are deterministic replays of the analytic cost
  models, so any drift beyond ``simulated_rtol`` means the modeled
  performance changed — slower is a blocking *regression*, faster is a
  non-blocking *improvement* (update the baseline to lock it in);
* **wall** metrics are real measurements and vary across machines; they are
  only gated when ``wall_rtol`` is set (loose values recommended on shared
  CI runners);
* **invariants** (problem shapes) and the point set itself must match
  exactly — any difference is a blocking *mismatch* meaning the scenario
  definition changed and the baseline must be regenerated;
* **derived** record-level metrics (wall speedups such as the stacked
  apply's) are ratios of measurements and never gated — drifts beyond the
  simulated rtol are surfaced as non-blocking *info* rows so the CI summary shows how
  the speedups moved;
* the records' ``environment.cpu_count`` must agree for their wall and
  derived numbers to be comparable — a difference is one non-blocking
  *info* row, so the summary says so.

Exit-code semantics (used by ``repro-bench compare`` and CI):
``0`` — no blocking differences; ``1`` — at least one regression/mismatch;
``2`` — a record was missing or unreadable (setup error, not a regression).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.analysis.reporting import format_table
from repro.bench.runner import SCHEMA_VERSION, load_record, record_filename

__all__ = [
    "Tolerances",
    "Difference",
    "ComparisonReport",
    "compare_records",
    "compare_directories",
]


@dataclass(frozen=True)
class Tolerances:
    """Relative tolerances of the comparison.

    ``wall_rtol=None`` (the default) skips wall-clock gating entirely.
    """

    simulated_rtol: float = 0.05
    wall_rtol: float | None = None
    #: Values below this are considered zero (avoids 0/0 relative changes).
    atol: float = 1e-12


@dataclass
class Difference:
    """One classified difference between a baseline and a fresh record."""

    scenario: str
    point: str
    metric: str
    baseline: float | None
    fresh: float | None
    kind: str  # "regression" | "improvement" | "mismatch" | "info"
    blocking: bool

    @property
    def rel_change(self) -> float | None:
        """Fresh relative to baseline (``+0.10`` = 10 % slower/larger)."""
        if self.baseline is None or self.fresh is None or self.baseline == 0.0:
            return None
        return self.fresh / self.baseline - 1.0


@dataclass
class ComparisonReport:
    """Aggregated outcome of comparing one or more scenarios."""

    differences: list[Difference] = field(default_factory=list)
    compared: list[str] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)

    @property
    def blocking(self) -> list[Difference]:
        return [d for d in self.differences if d.blocking]

    @property
    def ok(self) -> bool:
        return not self.blocking and not self.missing

    @property
    def exit_code(self) -> int:
        if self.missing:
            return 2
        return 1 if self.blocking else 0

    def merge(self, other: "ComparisonReport") -> None:
        self.differences.extend(other.differences)
        self.compared.extend(other.compared)
        self.missing.extend(other.missing)

    def to_dict(self) -> dict[str, Any]:
        """Machine-readable report (``repro-bench compare --json``)."""
        return {
            "ok": self.ok,
            "exit_code": self.exit_code,
            "compared": list(self.compared),
            "missing": list(self.missing),
            "differences": [
                {
                    "scenario": d.scenario,
                    "point": d.point,
                    "metric": d.metric,
                    "baseline": d.baseline,
                    "fresh": d.fresh,
                    "rel_change": d.rel_change,
                    "kind": d.kind,
                    "blocking": d.blocking,
                }
                for d in self.differences
            ],
        }

    def summary(self) -> str:
        """Human-readable report (a table of differences plus a verdict)."""
        lines = []
        if self.differences:
            rows = []
            for d in self.differences:
                rel = d.rel_change
                rows.append(
                    [
                        d.scenario,
                        d.point,
                        d.metric,
                        "-" if d.baseline is None else f"{d.baseline:.6g}",
                        "-" if d.fresh is None else f"{d.fresh:.6g}",
                        "-" if rel is None else f"{rel:+.1%}",
                        d.kind + (" (blocking)" if d.blocking else ""),
                    ]
                )
            lines.append(
                format_table(
                    ["scenario", "point", "metric", "baseline", "fresh", "change", "verdict"],
                    rows,
                    title="Baseline differences",
                )
            )
        for name in self.missing:
            lines.append(f"MISSING: {name}")
        n_reg = sum(1 for d in self.blocking)
        lines.append(
            f"compared {len(self.compared)} scenario(s): "
            f"{n_reg} blocking difference(s), {len(self.missing)} missing record(s) "
            f"-> {'OK' if self.ok else 'FAIL'}"
        )
        return "\n".join(lines)

    def markdown_summary(self) -> str:
        """GitHub-flavored markdown report (``$GITHUB_STEP_SUMMARY``).

        The same content as :meth:`summary`, rendered as a markdown table
        so the benchmark-gate job surfaces the verdict on the workflow
        summary page instead of only in the log.
        """
        lines = ["## Benchmark comparison", ""]
        if self.differences:
            lines.append(
                "| scenario | point | metric | baseline | fresh | change | verdict |"
            )
            lines.append("|---|---|---|---:|---:|---:|---|")
            for d in self.differences:
                rel = d.rel_change
                verdict = d.kind + (" **(blocking)**" if d.blocking else "")
                lines.append(
                    "| {} | {} | {} | {} | {} | {} | {} |".format(
                        d.scenario,
                        d.point,
                        d.metric.replace("|", "\\|"),
                        "-" if d.baseline is None else f"{d.baseline:.6g}",
                        "-" if d.fresh is None else f"{d.fresh:.6g}",
                        "-" if rel is None else f"{rel:+.1%}",
                        verdict,
                    )
                )
            lines.append("")
        else:
            lines.append("No differences against the committed baselines.")
            lines.append("")
        for name in self.missing:
            lines.append(f"- :warning: missing record: `{name}`")
        if self.missing:
            lines.append("")
        n_reg = len(self.blocking)
        icon = ":white_check_mark: OK" if self.ok else ":x: FAIL"
        lines.append(
            f"{icon} — compared {len(self.compared)} scenario(s), "
            f"{n_reg} blocking difference(s), {len(self.missing)} missing record(s)"
        )
        return "\n".join(lines) + "\n"


def compare_records(
    baseline: dict[str, Any],
    fresh: dict[str, Any],
    tolerances: Tolerances | None = None,
) -> ComparisonReport:
    """Compare one fresh record against its baseline."""
    tol = tolerances or Tolerances()
    name = str(fresh.get("benchmark", baseline.get("benchmark", "?")))
    report = ComparisonReport(compared=[name])

    for which, record in (("baseline", baseline), ("fresh", fresh)):
        version = record.get("schema_version")
        if version != SCHEMA_VERSION:
            report.differences.append(
                Difference(
                    scenario=name,
                    point="-",
                    metric=f"schema_version ({which})",
                    baseline=float(SCHEMA_VERSION),
                    fresh=float(version) if isinstance(version, (int, float)) else None,
                    kind="mismatch",
                    blocking=True,
                )
            )
    if report.differences:
        return report

    _compare_cpu_count(name, baseline, fresh, report)
    base_points = {p["key"]: p for p in baseline.get("points", [])}
    fresh_points = {p["key"]: p for p in fresh.get("points", [])}
    for key in sorted(base_points.keys() | fresh_points.keys()):
        bp, fp = base_points.get(key), fresh_points.get(key)
        if bp is None or fp is None:
            report.differences.append(
                Difference(
                    scenario=name,
                    point=key,
                    metric="point missing in " + ("baseline" if bp is None else "fresh run"),
                    baseline=None,
                    fresh=None,
                    kind="mismatch",
                    blocking=True,
                )
            )
            continue
        _compare_point(name, key, bp, fp, tol, report)
    _compare_derived(name, baseline, fresh, tol, report)
    return report


def _compare_cpu_count(
    name: str, baseline: dict[str, Any], fresh: dict[str, Any], report: ComparisonReport
) -> None:
    """One non-blocking row when the records ran on different core counts."""
    bv = baseline.get("environment", {}).get("cpu_count")
    fv = fresh.get("environment", {}).get("cpu_count")
    if bv != fv:
        report.differences.append(
            Difference(
                scenario=name,
                point="-",
                metric="environment.cpu_count",
                baseline=None if bv is None else float(bv),
                fresh=None if fv is None else float(fv),
                kind="info",
                blocking=False,
            )
        )


def _compare_derived(
    name: str,
    baseline: dict[str, Any],
    fresh: dict[str, Any],
    tol: Tolerances,
    report: ComparisonReport,
) -> None:
    """Surface record-level derived metrics (speedups) as non-blocking rows.

    Derived metrics are ratios of measurements, so they drift with wall
    noise and are never gated; the rows exist so the CI summary shows how the derived
    speedups moved without failing the gate.  A metric present on only one
    side (e.g. a baseline predating the metric) is informational too.
    """
    base_metrics = baseline.get("derived", {})
    fresh_metrics = fresh.get("derived", {})
    for metric in sorted(base_metrics.keys() | fresh_metrics.keys()):
        bv, fv = base_metrics.get(metric), fresh_metrics.get(metric)
        if bv is not None and fv is not None:
            bv, fv = float(bv), float(fv)
            if abs(bv) <= tol.atol or abs(fv / bv - 1.0) <= tol.simulated_rtol:
                continue
        report.differences.append(
            Difference(
                scenario=name,
                point="-",
                metric=f"derived.{metric}",
                baseline=None if bv is None else float(bv),
                fresh=None if fv is None else float(fv),
                kind="info",
                blocking=False,
            )
        )


def _compare_point(
    name: str,
    key: str,
    baseline: dict[str, Any],
    fresh: dict[str, Any],
    tol: Tolerances,
    report: ComparisonReport,
) -> None:
    for metric, bv in baseline.get("invariants", {}).items():
        fv = fresh.get("invariants", {}).get(metric)
        if fv != bv:
            report.differences.append(
                Difference(
                    scenario=name,
                    point=key,
                    metric=f"invariants.{metric}",
                    baseline=float(bv),
                    fresh=None if fv is None else float(fv),
                    kind="mismatch",
                    blocking=True,
                )
            )
    _compare_metrics(name, key, "simulated", baseline, fresh, tol.simulated_rtol, tol, report)
    if tol.wall_rtol is not None:
        _compare_metrics(name, key, "wall", baseline, fresh, tol.wall_rtol, tol, report)


def _compare_metrics(
    name: str,
    key: str,
    category: str,
    baseline: dict[str, Any],
    fresh: dict[str, Any],
    rtol: float,
    tol: Tolerances,
    report: ComparisonReport,
) -> None:
    base_metrics = baseline.get(category, {})
    fresh_metrics = fresh.get(category, {})
    for metric in sorted(base_metrics.keys() | fresh_metrics.keys()):
        bv, fv = base_metrics.get(metric), fresh_metrics.get(metric)
        if bv is None or fv is None:
            report.differences.append(
                Difference(
                    scenario=name,
                    point=key,
                    metric=f"{category}.{metric}",
                    baseline=bv,
                    fresh=fv,
                    kind="mismatch",
                    blocking=True,
                )
            )
            continue
        bv, fv = float(bv), float(fv)
        if abs(bv) <= tol.atol and abs(fv) <= tol.atol:
            continue
        if abs(bv) <= tol.atol:
            rel = float("inf")
        else:
            rel = fv / bv - 1.0
        if rel > rtol:
            report.differences.append(
                Difference(
                    scenario=name,
                    point=key,
                    metric=f"{category}.{metric}",
                    baseline=bv,
                    fresh=fv,
                    kind="regression",
                    blocking=True,
                )
            )
        elif rel < -rtol:
            report.differences.append(
                Difference(
                    scenario=name,
                    point=key,
                    metric=f"{category}.{metric}",
                    baseline=bv,
                    fresh=fv,
                    kind="improvement",
                    blocking=False,
                )
            )


def compare_directories(
    results_dir: str | Path,
    baselines_dir: str | Path,
    scenario_names: list[str] | None = None,
    tolerances: Tolerances | None = None,
) -> ComparisonReport:
    """Compare every fresh record in ``results_dir`` against its baseline.

    With ``scenario_names`` the comparison is restricted to (and requires
    fresh records for) exactly those scenarios; otherwise every
    ``BENCH_*.json`` found in ``results_dir`` is compared.
    """
    results_dir, baselines_dir = Path(results_dir), Path(baselines_dir)
    report = ComparisonReport()

    if scenario_names is None:
        fresh_paths = sorted(results_dir.glob("BENCH_*.json"))
        if not fresh_paths:
            report.missing.append(f"no BENCH_*.json records in {results_dir}")
            return report
    else:
        fresh_paths = [results_dir / record_filename(n) for n in scenario_names]

    for fresh_path in fresh_paths:
        if not fresh_path.is_file():
            report.missing.append(f"fresh record {fresh_path} not found")
            continue
        fresh = _load_or_report(fresh_path, report)
        if fresh is None:
            continue
        baseline_path = baselines_dir / fresh_path.name
        if not baseline_path.is_file():
            report.missing.append(f"baseline {baseline_path} not found")
            continue
        baseline = _load_or_report(baseline_path, report)
        if baseline is None:
            continue
        report.merge(compare_records(baseline, fresh, tolerances))
    return report


def _load_or_report(path: Path, report: ComparisonReport) -> dict[str, Any] | None:
    """Load a record; a corrupt file is a setup error (exit 2), not exit 1."""
    try:
        record = load_record(path)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        report.missing.append(f"unreadable record {path}: {exc}")
        return None
    if not isinstance(record, dict):
        report.missing.append(f"unreadable record {path}: not a JSON object")
        return None
    return record
