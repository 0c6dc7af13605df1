"""Tests of the GPU kernel cost model."""

from __future__ import annotations

import pytest

from repro.gpu.costmodel import CudaVersion, GpuCostModel


@pytest.fixture(scope="module")
def model():
    return GpuCostModel()


def test_all_costs_positive(model):
    assert model.transfer(1024) > 0
    assert model.dense_trsm(100, 10) > 0
    assert model.syrk(100, 200) > 0
    assert model.gemv(100, 100) > 0
    assert model.symv(100) > 0
    assert model.spmm(1000, 10) > 0
    assert model.spmv(1000) > 0
    assert model.sparse_to_dense(100, 100, 500) > 0
    assert model.scatter_gather(100) > 0


def test_launch_overhead_floor(model):
    """Tiny kernels are dominated by the launch overhead (Section V)."""
    assert model.gemv(2, 2) >= model.kernel_launch_overhead
    assert model.dense_trsm(2, 1) >= model.kernel_launch_overhead


def test_legacy_sparse_trsm_much_faster_than_modern(model):
    """The paper: the modern generic cuSPARSE TRSM is strongly underperforming."""
    legacy = model.sparse_trsm(10**6, 4000, 500, CudaVersion.LEGACY)
    modern = model.sparse_trsm(10**6, 4000, 500, CudaVersion.MODERN)
    assert modern > 5.0 * legacy


def test_modern_requires_large_persistent_buffers(model):
    legacy = model.sparse_trsm_buffer_bytes(
        10**6, 4000, 500, CudaVersion.LEGACY, persistent=True
    )
    modern = model.sparse_trsm_buffer_bytes(
        10**6, 4000, 500, CudaVersion.MODERN, persistent=True
    )
    assert legacy == 0
    assert modern > 10**7


def test_legacy_csc_factor_and_col_major_rhs_cost_extra(model):
    base = model.sparse_trsm(10**6, 4000, 500, CudaVersion.LEGACY)
    csc = model.sparse_trsm(10**6, 4000, 500, CudaVersion.LEGACY, csc_factor=True)
    col = model.sparse_trsm(
        10**6, 4000, 500, CudaVersion.LEGACY, col_major_rhs=True
    )
    assert csc > base
    assert col > base
    base_buf = model.sparse_trsm_buffer_bytes(10**6, 4000, 500, CudaVersion.LEGACY)
    csc_buf = model.sparse_trsm_buffer_bytes(
        10**6, 4000, 500, CudaVersion.LEGACY, csc_factor=True
    )
    col_buf = model.sparse_trsm_buffer_bytes(
        10**6, 4000, 500, CudaVersion.LEGACY, col_major_rhs=True
    )
    assert csc_buf >= base_buf + 12 * 10**6  # roughly the factor size
    assert col_buf >= base_buf + 8 * 4000 * 500  # roughly the RHS size


def test_syrk_cheaper_than_trsm_for_wide_factors(model):
    """SYRK works on the (smaller) dual dimension: F̃ assembly prefers it."""
    ndofs, n_lambda = 4000, 600
    trsm = model.dense_trsm(ndofs, n_lambda)
    syrk = model.syrk(n_lambda, ndofs)
    assert syrk < trsm


def test_gemv_bandwidth_bound_scales_linearly(model):
    t1 = model.gemv(1000, 1000)
    t2 = model.gemv(2000, 2000)
    assert 2.0 < t2 / t1 < 6.0


def test_transfer_latency_floor(model):
    assert model.transfer(0) == pytest.approx(model.pcie_latency)
    assert model.transfer(10**9) > 0.01


def test_costs_monotone_in_size(model):
    assert model.dense_trsm(100, 10) < model.dense_trsm(1000, 100)
    assert model.spmm(1000, 10) < model.spmm(100_000, 100)
    assert model.sparse_trsm_analysis(10**4, CudaVersion.LEGACY) < \
        model.sparse_trsm_analysis(10**7, CudaVersion.LEGACY)
