"""Tests of the precision policies and factor demotion primitives."""

from __future__ import annotations

import numpy as np
import pytest

from repro.memory.precision import (
    PRECISION_NAMES,
    PRECISIONS,
    PrecisionPolicy,
    demote_array,
    demote_factor,
    factor_nbytes,
    resolve_precision,
)
from repro.sparse import SparseSolver

from tests.conftest import random_spd_matrix


@pytest.fixture(scope="module")
def spd():
    rng = np.random.default_rng(23)
    return random_spd_matrix(60, 0.08, rng)


def test_registry_exposes_the_three_policies():
    assert PRECISION_NAMES == ("fp64", "fp32", "fp32_ir")
    assert not PRECISIONS["fp64"].demotes
    assert PRECISIONS["fp32"].demotes and not PRECISIONS["fp32"].refine
    ir = PRECISIONS["fp32_ir"]
    assert ir.demotes and ir.refine
    assert ir.refine_steps > 0 and ir.dual_refine_rounds > 0
    assert ir.storage_dtype == np.dtype(np.float32)


def test_resolve_precision_names_policies_and_none():
    assert resolve_precision(None) is PRECISIONS["fp64"]
    assert resolve_precision("fp32_ir") is PRECISIONS["fp32_ir"]
    policy = PrecisionPolicy(name="custom", storage_dtype=np.dtype(np.float32))
    assert resolve_precision(policy) is policy
    with pytest.raises(ValueError, match="known policies"):
        resolve_precision("fp16")


def test_demote_array_is_a_noop_at_matching_dtype():
    a = np.arange(8, dtype=np.float32)
    assert demote_array(a, np.dtype(np.float32)) is a
    demoted = demote_array(np.arange(8, dtype=np.float64), np.dtype(np.float32))
    assert demoted.dtype == np.float32
    assert demoted.flags.c_contiguous


def test_demote_factor_converts_the_band(spd):
    solver = SparseSolver()
    solver.factorize(spd)
    factor = solver._factor
    fp64_bytes = factor_nbytes(factor)
    assert factor.band.dtype == np.float64
    assert fp64_bytes == 8 * factor.n * (factor.symbolic.kd + 1)

    demote_factor(factor, np.dtype(np.float32))
    assert factor.band.dtype == np.float32
    assert factor_nbytes(factor) * 2 == fp64_bytes


def test_demote_factor_noops_for_fp64_and_none(spd):
    solver = SparseSolver()
    solver.factorize(spd)
    factor = solver._factor
    band = factor.band
    assert demote_factor(factor, np.dtype(np.float64)) is factor
    assert factor.band is band  # untouched
    assert demote_factor(None, np.dtype(np.float32)) is None
    assert factor_nbytes(None) == 0


@pytest.mark.parametrize("precision", ["fp32", "fp32_ir"])
def test_solver_stores_fp32_factors_under_demoting_policies(spd, precision):
    solver = SparseSolver(precision=precision)
    solver.factorize(spd)
    factor = solver._factor
    assert factor.band.dtype == np.float32
    reference = SparseSolver()
    reference.factorize(spd)
    # fp32 storage halves the factor; fp32_ir additionally retains the fp64
    # matrix for refinement, so its resident bytes do not halve.
    if precision == "fp32":
        assert solver.storage_nbytes() * 2 == reference.storage_nbytes()
    else:
        assert solver.storage_nbytes() > reference.storage_nbytes() // 2


def test_refinement_recovers_fp64_accuracy_from_fp32_factors(spd):
    rng = np.random.default_rng(3)
    b = rng.standard_normal(spd.shape[0])

    fp32 = SparseSolver(precision="fp32")
    fp32.factorize(spd)
    ir = SparseSolver(precision="fp32_ir")
    ir.factorize(spd)

    norm_b = np.linalg.norm(b)
    res_fp32 = np.linalg.norm(spd @ fp32.solve(b) - b) / norm_b
    res_ir = np.linalg.norm(spd @ ir.solve(b) - b) / norm_b
    assert res_fp32 > 1e-9  # rounded factors alone stall at fp32 level
    assert res_ir < 1e-12  # refinement recovers double-precision residuals
    # The override used by the PCPG operator applies skips refinement.
    res_raw = np.linalg.norm(spd @ ir.solve(b, refine=False) - b) / norm_b
    assert res_raw == pytest.approx(res_fp32, rel=1.0)
    assert res_raw > 1e-9
