#!/usr/bin/env python3
"""Benchmark entry point: ``python3 benchmarks/perf/run.py --workload <name>
--seed <n> --seconds <s> --trace <0|1>`` from the root of a checkout.

Pins the BLAS thread count *before* numpy is imported, makes ``src/`` and the
``benchmarks.perf`` namespace package importable, then hands over to
:func:`benchmarks.perf.bench.main`.
"""

import sys
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parents[1]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        sys.exit(f"{ROOT} is not a checkout of the repository (no src/repro or BENCHMARK.json)")
    # The script's own directory must not shadow top-level imports.
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != PERF_DIR]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from benchmarks.perf import env

    env.pin_blas_threads()

    from benchmarks.perf.bench import main

    sys.exit(main())
