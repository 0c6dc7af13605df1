"""``python -m benchmarks.perf``: every workload, timed pass then traced pass.

Each (workload, pass) is one fresh ``run.py`` subprocess — the very command
``BENCHMARK.json`` declares — so this driver adds nothing to what is
measured; it only collects the result lines, prints them as tables and, with
``--repeat N``, checks that complete sets agree within each metric's bound.

Run from the repository root::

    python -m benchmarks.perf               # full set, ~5 min
    python -m benchmarks.perf --repeat 2    # repeatability self-check
    python -m benchmarks.perf --quick       # n=20 everywhere, no traced pass
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from typing import Any

from . import env
from .workloads import WORKLOADS

#: Per-layer metrics that must repeat exactly between two sets of runs.
EXACT = ("pcpg.iterations", "operators.sim_preprocess_s", "operators.sim_apply_s")
#: Every set is the benchmark of record: all workloads, this seed, ``run_seconds``.
SEED = 0
#: ``--quick``: a window this short resolves to the floor of 20 operations.
QUICK_SECONDS = 0.0


def run_once(workload: str, seconds: float, trace: int) -> dict[str, Any] | None:
    """One ``run.py`` subprocess; its result document, or ``None`` when skipped."""
    command = [
        sys.executable,
        str(env.PERF_DIR / "run.py"),
        *("--workload", workload, "--seed", str(SEED)),
        *("--seconds", str(seconds), "--trace", str(trace)),
    ]
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=env.REPO_ROOT, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - start
    if proc.returncode == env.SKIPPED_EXIT_CODE:
        return None
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    # The last line is the contract's result object; the document the run
    # wrote beside its spans adds the sample count, percentile and stamp.
    result = json.loads((env.OUT_DIR / f"result_{workload}_trace{trace}.json").read_text())
    result["exit_code"] = proc.returncode
    # The run's own table: every metric by name with its value, wall and unit.
    result["table"] = [line for line in lines[:-1] if not line.startswith("#")]
    result["run_wall_s"] = wall
    return result


def run_set(seconds: float, traced: bool) -> dict[str, Any]:
    """All workloads, timed pass first, then the traced pass."""
    results: dict[str, Any] = {}
    for name, workload in WORKLOADS.items():
        passes = [run_once(name, seconds, trace) for trace in ((0, 1) if traced else (0,))]
        if passes[0] is None:
            print(f"\n== {name}: skipped (needs {workload.workers} workers, nproc={env.nproc()})")
            continue
        results[name] = passes
        for trace, result in enumerate(passes):
            tail = "" if trace else f" op_s.tail=p{result['tail_percentile']:g} of n={result['n']}"
            print(f"\n== {name} [{'per-layer' if trace else 'end-to-end'}] "
                  f"correct={result['correct']} attempted={result['attempted']}{tail} "
                  f"machine_slowdown={result['stamp']['gauge']['machine_slowdown']:.2f} "
                  f"run_wall={result['run_wall_s']:.1f}s")
            for line in result["table"]:
                print("  " + line)
    return results


def compare_sets(first: dict[str, Any], second: dict[str, Any], contract: dict[str, Any]) -> bool:
    """Print |second - first| / first per end-to-end metric next to its bound."""
    ok = True
    print("\n== repeatability: relative difference of two sets (bound)")
    for name in first:
        for metric in contract["end_to_end"]:
            a, b = (s[name][0]["metrics"][metric["name"]]["value"] for s in (first, second))
            diff = abs(b - a) / abs(a)
            miss = diff > metric["bound"]
            ok &= not miss
            print(f"  {name:30s} {metric['name']:12s} {diff:8.2%}  ({metric['bound']:.0%})"
                  + ("  MISS" if miss else ""))
        if len(first[name]) > 1:
            for metric in EXACT:
                a, b = (s[name][1]["metrics"][metric]["value"] for s in (first, second))
                if a != b:
                    ok = False
                    print(f"  {name:30s} {metric} differs: {a!r} != {b!r}  MISS")
    return ok


def main(argv: list[str] | None = None) -> int:
    contract = env.load_contract()
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf", description=__doc__)
    parser.add_argument("--repeat", type=int, default=1, help="complete sets to run and compare")
    parser.add_argument("--quick", action="store_true", help="n=20 everywhere, no traced pass")
    args = parser.parse_args(argv)

    seconds = QUICK_SECONDS if args.quick else float(contract["run_seconds"])
    sets = [run_set(seconds, traced=not args.quick) for _ in range(args.repeat)]
    ok = all(r["exit_code"] == 0 for s in sets for passes in s.values() for r in passes)
    for later in sets[1:]:
        ok &= compare_sets(sets[0], later, contract)
    print("\nOK" if ok else "\nFAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
