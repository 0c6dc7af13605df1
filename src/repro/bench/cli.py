"""``repro-bench`` — list, run and regression-gate benchmark scenarios.

Subcommands
-----------
``repro-bench list``
    Enumerate the registered scenarios (name, tags, grid size, description).
``repro-bench run``
    Execute scenarios and write ``BENCH_<scenario>.json`` records into
    ``--output-dir`` (default ``bench-results/``, which is gitignored; point
    it at the repository root to regenerate committed baselines).  With
    ``--workload <preset-or-json-file>`` it instead runs one ad-hoc
    workload given as a :class:`repro.api.Workload` preset name or a JSON
    file of its ``to_dict`` serialization — the same objects the Session
    API consumes.
``repro-bench compare``
    Diff fresh records against committed baselines.  Exit code ``0`` means
    within tolerance, ``1`` means a regression or scenario mismatch, ``2``
    means a record was missing (setup error).  ``--json`` emits the report
    machine-readably for CI and scripts.

Scenario selection is shared by ``run`` and ``compare``: positional names,
``--tag TAG``, or ``--quick`` (shorthand for ``--tag quick``, the CI gate
set).  ``compare`` with no selection diffs every record found in the results
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence

from repro.bench import registry
from repro.bench.baseline import Tolerances, compare_directories
from repro.bench.runner import (
    InvariantViolation,
    PointTimeout,
    run_scenario,
    write_record,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Benchmark scenario registry: list, run, and compare against baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="enumerate registered scenarios")
    _add_selection(p_list)
    p_list.add_argument("--json", action="store_true", help="machine-readable output")

    p_run = sub.add_parser("run", help="run scenarios and write BENCH_*.json records")
    _add_selection(p_run)
    p_run.add_argument(
        "--workload",
        help=(
            "run one ad-hoc workload instead of registered scenarios: a "
            "repro.api.Workload preset name (e.g. heat-2d-quick) or a JSON "
            "file of its serialization"
        ),
    )
    p_run.add_argument(
        "--approach",
        action="append",
        help=(
            "dual-operator approach(es) for --workload (Table-III value, "
            "e.g. 'expl mkl'; repeatable; default: expl mkl)"
        ),
    )
    p_run.add_argument(
        "-o",
        "--output-dir",
        default="bench-results",
        help="directory for the fresh records (default: %(default)s)",
    )
    p_run.add_argument(
        "--no-invariants",
        action="store_true",
        help="skip the scenario invariant checks (shape + operator consistency)",
    )
    p_run.add_argument(
        "--executor",
        choices=["serial", "threads"],
        help=(
            "force one runtime execution backend for every measured point "
            "(replaces the scenarios' own execution axis; point keys gain "
            "the executor suffix, so compare ad-hoc runs against each other, "
            "not against committed baselines)"
        ),
    )
    p_run.add_argument(
        "--workers",
        type=int,
        help="worker count for --executor (default: the host's CPU count)",
    )
    p_run.add_argument(
        "--precision",
        choices=["fp64", "fp32", "fp32_ir"],
        help=(
            "force one factor-storage precision for every measured point "
            "(replaces the scenarios' own precision axis; non-fp64 point "
            "keys gain the precision suffix, so compare ad-hoc runs against "
            "each other, not against committed baselines)"
        ),
    )
    p_run.add_argument(
        "--timeout",
        type=float,
        metavar="SECONDS",
        help=(
            "per-unit wall-clock budget (a unit is one grid point, or one "
            "backend / approach / service boot of a phase scenario); a unit "
            "that does not finish (e.g. a hung pool worker) aborts the run "
            "with exit code 2"
        ),
    )
    p_run.add_argument(
        "--trace",
        metavar="PATH",
        help=(
            "trace every freshly measured unit and write one JSON document "
            "holding the per-unit span trees (keyed <scenario>:<unit>) plus "
            "a combined Chrome trace-event stream to PATH"
        ),
    )

    p_cmp = sub.add_parser("compare", help="diff fresh records against baselines")
    _add_selection(p_cmp)
    p_cmp.add_argument(
        "--results",
        default="bench-results",
        help="directory holding the fresh records (default: %(default)s)",
    )
    p_cmp.add_argument(
        "--baselines",
        default=".",
        help="directory holding the committed baselines (default: repository root)",
    )
    p_cmp.add_argument(
        "--rtol",
        type=float,
        default=Tolerances.simulated_rtol,
        help="relative tolerance on simulated metrics (default: %(default)s)",
    )
    p_cmp.add_argument(
        "--wall-rtol",
        type=float,
        default=None,
        help="relative tolerance on wall-clock metrics (default: not gated)",
    )
    p_cmp.add_argument(
        "--json", action="store_true", help="machine-readable JSON report"
    )
    return parser


def _add_selection(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("scenarios", nargs="*", help="scenario names (default: see --tag)")
    parser.add_argument("--tag", help="select every scenario carrying this tag")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="select the quick scenarios (the CI regression-gate set)",
    )


def _select(args: argparse.Namespace, default_all: bool) -> list[str] | None:
    """Resolve the shared selection options to scenario names.

    Returns ``None`` when nothing was selected and ``default_all`` is False
    (``compare`` then falls back to "whatever the results directory holds").
    """
    if args.scenarios:
        for name in args.scenarios:
            registry.get(name)  # raises KeyError with the known names
        return list(args.scenarios)
    tag = "quick" if args.quick else args.tag
    if tag is not None:
        names = registry.names(tag)
        if not names:
            raise KeyError(f"no scenario carries the tag {tag!r} (tags: {registry.all_tags()})")
        return names
    return registry.names() if default_all else None


def _cmd_list(args: argparse.Namespace) -> int:
    names = _select(args, default_all=True)
    selected = [registry.get(n) for n in names]
    if args.json:
        payload = [
            {
                "name": s.name,
                "description": s.description,
                "physics": s.base.physics,
                "dim": s.base.dim,
                "tags": sorted(s.tags),
                "n_points": s.n_points(),
                "approaches": [a.value for a in s.approaches],
                "axes": s.axes(),
            }
            for s in selected
        ]
        print(json.dumps(payload, indent=2))
        return 0
    from repro.analysis.reporting import format_table

    rows = [
        [
            s.name,
            s.base.physics,
            f"{s.base.dim}D",
            s.n_points(),
            ",".join(sorted(s.tags)),
            s.description,
        ]
        for s in selected
    ]
    print(
        format_table(
            ["scenario", "physics", "dim", "points", "tags", "description"],
            rows,
            title=f"{len(rows)} registered scenario(s)",
        )
    )
    print("\nsweep axes (swept values separated by |):")
    for s in selected:
        axes = ", ".join(
            f"{axis}={'|'.join(values)}" for axis, values in s.axes().items()
        )
        print(f"  {s.name}: {axes}")
    return 0


def _load_workload(source: str):
    """Resolve ``--workload``: a preset name, else a JSON file path."""
    from pathlib import Path

    from repro.api.workload import Workload, WorkloadError, workload_preset, workload_presets

    path = Path(source)
    if path.suffix.lower() == ".json" or path.is_file():
        try:
            workload = Workload.from_json(path.read_text())
        except OSError as exc:
            raise KeyError(f"cannot read workload file {source!r}: {exc}") from exc
        except WorkloadError as exc:
            raise KeyError(f"invalid workload in {source!r}: {exc}") from exc
        return workload, path.stem
    try:
        return workload_preset(source), source
    except KeyError:
        known = ", ".join(workload_presets())
        raise KeyError(
            f"--workload {source!r} is neither a preset name nor a JSON file; "
            f"registered presets: {known}"
        ) from None


def _workload_scenario(args: argparse.Namespace) -> registry.Scenario:
    """An ad-hoc scenario wrapping the ``--workload`` argument."""
    from repro.feti.config import DualOperatorApproach

    workload, stem = _load_workload(args.workload)
    approaches = tuple(
        DualOperatorApproach(value) for value in (args.approach or ["expl mkl"])
    )
    return registry.Scenario(
        name=f"workload_{stem}",
        description=f"ad-hoc workload {args.workload!r} ({workload.describe()})",
        base=workload,
        approaches=approaches,
    )


def _resolve_executor_override(args: argparse.Namespace):
    """The forced execution axis of ``--executor/--workers`` (or ``None``)."""
    from repro.runtime.executor import ExecutionSpec, default_workers

    if args.executor is None:
        if args.workers is not None:
            raise KeyError("--workers requires --executor")
        return None
    workers = (
        args.workers if args.workers is not None else default_workers(args.executor)
    )
    spec = ExecutionSpec(args.executor, workers)  # validates the combination
    return (None,) if spec.backend == "serial" else (spec,)


def _cmd_run(args: argparse.Namespace) -> int:
    if args.approach and not args.workload:
        print(
            "error: --approach only applies to an ad-hoc --workload run; "
            "registered scenarios declare their own approach sweep",
            file=sys.stderr,
        )
        return 2
    from repro.runtime.executor import ExecutionError

    try:
        executor_override = _resolve_executor_override(args)
    except ExecutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload:
        if args.scenarios or args.tag or args.quick:
            print(
                "error: --workload runs one ad-hoc workload and cannot be "
                "combined with scenario names, --tag or --quick",
                file=sys.stderr,
            )
            return 2
        try:
            scenario = _workload_scenario(args)
        except ValueError as exc:  # unknown approach value
            from repro.feti.config import DualOperatorApproach

            valid = ", ".join(a.value for a in DualOperatorApproach)
            print(f"error: {exc} (valid approaches: {valid})", file=sys.stderr)
            return 2
        names = [scenario.name]
        get_scenario = {scenario.name: scenario}.__getitem__
    else:
        names = _select(args, default_all=True)
        get_scenario = registry.get
    trace_sink = {} if args.trace else None
    for name in names:
        scenario = get_scenario(name)
        if executor_override is not None or args.precision is not None:
            from dataclasses import replace as dc_replace

            if executor_override is not None:
                scenario = dc_replace(scenario, execution=executor_override)
            if args.precision is not None:
                scenario = dc_replace(scenario, precision=(args.precision,))
        print(f"running {name} ({scenario.n_points()} grid points)...", flush=True)
        try:
            result = run_scenario(
                scenario,
                check_invariants=not args.no_invariants,
                point_timeout=args.timeout,
                trace_sink=trace_sink,
            )
        except InvariantViolation as exc:
            print(f"INVARIANT VIOLATION: {exc}", file=sys.stderr)
            return 2
        except PointTimeout as exc:
            print(f"POINT TIMEOUT: {exc}", file=sys.stderr)
            return 2
        path = write_record(result.record, args.output_dir)
        print(f"  wrote {path}")
        _print_speedup_summary(result.record)
    if trace_sink is not None:
        trace_path = _write_trace(trace_sink, args.trace)
        print(f"  wrote {trace_path} ({len(trace_sink)} traced unit(s))")
    return 0


def _write_trace(trace_sink: dict, path: str):
    """Serialize collected per-unit tracers into one JSON document.

    The document carries both views: ``points`` maps each measured unit's
    ``<scenario>:<unit>`` name to its nested span tree, and ``traceEvents`` concatenates every
    tracer's Chrome trace events so the whole run loads in
    ``chrome://tracing`` / Perfetto as-is.
    """
    from pathlib import Path

    document = {
        "schema_version": 1,
        "displayTimeUnit": "ms",
        "points": {key: tracer.to_tree() for key, tracer in trace_sink.items()},
        "traceEvents": [
            event
            for tracer in trace_sink.values()
            for event in tracer.chrome_events()
        ],
    }
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(document, indent=2) + "\n")
    return target


def _print_speedup_summary(record: dict) -> None:
    """Preprocessing-vs-apply summary of one record (shown in the CI gate log).

    Prints the derived wall-clock speedups (sharded executors vs serial)
    and the preprocessing/apply wall ratio of every measured point, so the
    benchmark-gate job log shows at a glance which phase dominates and what
    the optimized paths buy.
    """
    for key, value in record.get("derived", {}).items():
        print(f"  {key} = {value:.2f}x")
    for point in record.get("points", []):
        wall = point.get("wall", {})
        pre, app = wall.get("preprocessing_seconds"), wall.get("apply_seconds")
        if pre and app:
            print(
                f"  {point['key']}: preprocessing {pre * 1e3:.1f} ms "
                f"= {pre / app:.1f}x one apply ({app * 1e3:.2f} ms)"
            )


def _cmd_compare(args: argparse.Namespace) -> int:
    names = _select(args, default_all=False)
    tolerances = Tolerances(simulated_rtol=args.rtol, wall_rtol=args.wall_rtol)
    report = compare_directories(
        args.results, args.baselines, scenario_names=names, tolerances=tolerances
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.summary())
    _write_step_summary(report)
    return report.exit_code


def _write_step_summary(report) -> None:
    """Append the markdown report to ``$GITHUB_STEP_SUMMARY`` when set.

    GitHub Actions renders the file on the workflow-run summary page, so
    the benchmark-gate verdict and per-metric table are visible without
    opening the job log.  A no-op outside CI.
    """
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    try:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(report.markdown_summary())
    except OSError as exc:
        print(f"warning: cannot write GITHUB_STEP_SUMMARY: {exc}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``repro-bench`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_compare(args)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
