"""Tests of the precision policies and factor demotion primitives."""

from __future__ import annotations

import dataclasses

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


def test_registry_exposes_the_two_policies():
    assert PRECISION_NAMES == ("fp64", "fp32")
    assert PRECISIONS["fp64"].storage_dtype == np.dtype(np.float64)
    assert PRECISIONS["fp32"].storage_dtype == np.dtype(np.float32)


def test_a_policy_is_its_storage_dtype_only():
    """No policy carries a refinement knob: a policy names how ``L`` is stored."""
    fields = {f.name for f in dataclasses.fields(PrecisionPolicy)}
    assert fields == {"name", "storage_dtype"}
    for name, policy in PRECISIONS.items():
        assert policy.name == name
        assert policy.storage_dtype == np.dtype(f"float{name[2:]}")


def test_resolve_precision_names_policies_and_none():
    assert resolve_precision(None) is PRECISIONS["fp64"]
    assert resolve_precision("fp32") is PRECISIONS["fp32"]
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


def test_solver_stores_fp32_factors_under_the_fp32_policy(spd):
    solver = SparseSolver(precision="fp32")
    solver.factorize(spd)
    factor = solver._factor
    assert factor.band.dtype == np.float32
    reference = SparseSolver()
    reference.factorize(spd)
    # fp32 storage halves the factor: nothing else is resident beside it.
    assert solver.storage_nbytes() * 2 == reference.storage_nbytes()


@pytest.mark.parametrize("precision", PRECISION_NAMES)
def test_solver_storage_is_the_band_alone(spd, precision):
    solver = SparseSolver(precision=precision)
    assert solver.storage_nbytes() == 0
    solver.factorize(spd)
    band = solver._factor.band
    assert band.dtype == PRECISIONS[precision].storage_dtype
    assert solver.storage_nbytes() == band.nbytes == factor_nbytes(solver._factor)
    solver.release()
    assert solver.storage_nbytes() == 0


def test_fp32_solves_stall_at_the_storage_rounding(spd):
    """fp32 factors solve to ~1e-7, far above fp64's residual and far below 1."""
    b = np.random.default_rng(3).standard_normal(spd.shape[0])
    residuals = {}
    for precision in PRECISION_NAMES:
        solver = SparseSolver(precision=precision)
        solver.factorize(spd)
        x = solver.solve(b)
        assert x.dtype == np.float64
        residuals[precision] = np.linalg.norm(spd @ x - b) / np.linalg.norm(b)
    assert residuals["fp64"] < 1e-12
    assert 1e-9 < residuals["fp32"] < 1e-4
