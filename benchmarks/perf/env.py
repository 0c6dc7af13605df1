"""Environment pinning, the provenance stamp and resident-set readings.

Imported before numpy in every benchmark process: :func:`pin_blas_threads`
must run before the BLAS library is loaded for the pin to take effect.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from typing import Any

__all__ = [
    "BLAS_THREAD_VARS",
    "OUT_DIR",
    "PERF_DIR",
    "REPO_ROOT",
    "SKIPPED_EXIT_CODE",
    "SRC_DIR",
    "child_env",
    "git_sha",
    "load_contract",
    "nproc",
    "peak_rss_mb",
    "pin_blas_threads",
    "reaped_children_peak_rss_mb",
    "stamp",
]

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"
#: Span files and result documents land here (git-ignored).
OUT_DIR = PERF_DIR / "out"
#: Exit code of ``run.py`` for a workload that needs more workers than
#: ``nproc``: reported as skipped, never as a number.
SKIPPED_EXIT_CODE = 3


def pin_blas_threads() -> None:
    """Pin every BLAS backend to one thread.

    The only parallelism a workload may use is what its spec asks for, so a
    multi-threaded BLAS must not hide (or fight with) the runtime executor.
    """
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))


def load_contract() -> dict[str, Any]:
    """``BENCHMARK.json``: the one place metric names, units and bounds live."""
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict[str, str]:
    """Environment of a benchmark subprocess: pinned BLAS, ``src`` importable."""
    env = {**os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR), *filter(None, [env.get("PYTHONPATH")])]
    )
    return env


def nproc() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set (MB) of this process, or of a live child ``pid``.

    Reads ``VmHWM`` from ``/proc`` on Linux.  Elsewhere only the calling
    process can be measured (``getrusage``); a child then reads as NaN and
    the caller falls back to ``RUSAGE_CHILDREN`` after reaping it.
    """
    status = Path(f"/proc/{'self' if pid is None else pid}/status")
    try:
        for line in status.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid is not None:
        return float("nan")
    return _rusage_mb(resource.RUSAGE_SELF)


def reaped_children_peak_rss_mb() -> float:
    """Largest peak resident set among already-reaped children (non-Linux)."""
    return _rusage_mb(resource.RUSAGE_CHILDREN)


def _rusage_mb(who: int) -> float:
    peak = resource.getrusage(who).ru_maxrss
    # Linux reports kilobytes, macOS bytes.
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


def git_sha() -> str:
    """HEAD of the checkout, or ``"unknown"`` outside a git repository."""
    if not (REPO_ROOT / ".git").exists():
        # Never let git search the directories above the checkout.
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def stamp(seed: int) -> dict[str, Any]:
    """Provenance of one run (recorded next to every number)."""
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "seed": seed,
        "platform": platform.platform(),
    }
