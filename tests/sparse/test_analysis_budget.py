"""A deterministic budget for the symbolic analysis (the cold path).

Wall-clock numbers live in ``benchmarks/perf`` (``setup_s``,
``sparse.analyze_s``); these are the counts behind them.  The analysis may
spend a bounded number of *interpreted* steps per column — everything that
scales with ``nnz(L)`` has to happen inside array operations — and may hold a
bounded number of index bytes per factor entry.  The per-entry analysis it
replaced (``tests/oracles/sparse.py``) spent ~10 line events per entry of
``L``: 637 / 539 / 1451 per column at ``cells`` 6 / 8 / 10, and held 7.1x the
factor panels' bytes in index arrays at ``cells=12``; the array-form
analysis after it held 3.9 MB there, ~1.7x the factor's band.  The bitset
analysis keeps no per-entry map of ``L`` (no row indices, no panel
positions, no update maps) and builds no supernode partition: 0.49 MB.
"""

from __future__ import annotations

import sys

import pytest

from repro.fem.heat import HeatTransferProblem
from repro.sparse import symbolic
from repro.sparse.symbolic import symbolic_cholesky

from tests.conftest import fem_stiffness


def _line_events_in_symbolic(A) -> tuple[int, symbolic.SymbolicFactor]:
    """Run the analysis counting interpreted line events inside ``symbolic.py``."""
    filename = symbolic.__file__
    count = 0

    def local_trace(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local_trace

    def global_trace(frame, event, arg):
        return local_trace if frame.f_code.co_filename == filename else None

    previous = sys.gettrace()
    sys.settrace(global_trace)
    try:
        result = symbolic_cholesky(A)
    finally:
        sys.settrace(previous)
    return count, result


@pytest.mark.parametrize("cells", [6, 8, 10])
def test_interpreted_steps_scale_with_columns_not_factor_entries(cells):
    A = fem_stiffness(HeatTransferProblem(), 3, cells)
    events, s = _line_events_in_symbolic(A)
    assert events > 0  # the tracer saw the analysis
    assert events <= 250 * s.n
    if cells == 10:
        assert events <= 1.5 * s.nnz


def test_index_bytes_stay_within_a_fraction_of_the_band():
    """The heat 3D subdomain of the benchmark of record (2197 DOFs)."""
    s = symbolic_cholesky(fem_stiffness(HeatTransferProblem(), 3, 12))
    assert "supernodes" not in vars(s)  # built on first access only
    band_bytes = s.n * (s.kd + 1) * 8
    assert s.nbytes <= 0.25 * band_bytes
    assert s.nbytes <= 0.6e6
