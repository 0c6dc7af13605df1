"""Numerical tests of the simulated cuSPARSE kernels."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.gpu import CudaVersion, Device, DeviceProperties, MatrixOrder, cusparse
from repro.gpu.arrays import DeviceCsrMatrix, DeviceDenseMatrix, DeviceVector
from repro.sparse import numeric_cholesky, sparse_trsm_lower, symbolic_cholesky

from tests.conftest import random_spd_matrix


@pytest.fixture(params=[CudaVersion.LEGACY, CudaVersion.MODERN])
def device(request):
    dev = Device(
        properties=DeviceProperties(memory_capacity_bytes=64 * 1024**2),
        cuda_version=request.param,
    )
    dev.create_streams(2)
    return dev


@pytest.fixture()
def lower_factor():
    rng = np.random.default_rng(31)
    n = 30
    L = sp.tril(sp.random(n, n, density=0.2, random_state=rng)) + sp.diags(
        2.0 + rng.random(n)
    )
    return sp.csr_matrix(L)


def test_trsm_analysis_and_solve(device):
    """The device copy of ``L`` solves with the host factor it mirrors."""
    rng = np.random.default_rng(0)
    A = random_spd_matrix(30, 0.2, rng)
    factor = numeric_cholesky(A, symbolic_cholesky(A))
    L = factor.to_csc()
    stream = device.streams[0]
    dL, _ = device.upload_sparse(L.tocsr(), stream, 0.0, label="L", factor=factor)
    plan, op = cusparse.trsm_analysis(device, stream, dL, nrhs=5, submit_time=0.0)
    assert op.duration > 0
    arena = device.allocate_temporary_arena()
    B = rng.standard_normal((factor.n, 5))
    rhs = DeviceDenseMatrix(array=B.copy())
    cusparse.trsm(device, stream, plan, dL, rhs, 0.0, arena=arena)
    assert np.array_equal(rhs.array, sparse_trsm_lower(factor, B))
    assert np.allclose(L @ rhs.array, B, atol=1e-10)
    cusparse.trsm(device, stream, plan, dL, rhs, 0.0, transpose=True, arena=arena)
    assert np.allclose(L @ (L.T @ rhs.array), B, atol=1e-10)
    # temporary workspace fully released after the kernels
    assert arena.used_bytes == 0
    if device.cuda_version is CudaVersion.MODERN:
        assert plan.persistent_bytes > 0

    # New values without their host factor: the copy mirrors nothing.
    device.update_sparse_values(dL, 2.0 * L.tocsr(), stream, 0.0)
    with pytest.raises(ValueError, match="mirrors no host CholeskyFactor"):
        cusparse.trsm(device, stream, plan, dL, rhs, 0.0, arena=arena)
    assert arena.used_bytes == 0
    plan.release()


def test_spmm_and_spmv(device):
    stream = device.streams[0]
    rng = np.random.default_rng(5)
    A = sp.random(12, 20, density=0.3, random_state=rng).tocsr()
    dA, _ = device.upload_sparse(A, stream, 0.0)
    B = rng.standard_normal((20, 4))
    out = DeviceDenseMatrix(array=np.zeros((12, 4)))
    cusparse.spmm(device, stream, dA, DeviceDenseMatrix(array=B), out, 0.0)
    assert np.allclose(out.array, A @ B)

    x = DeviceVector(array=rng.standard_normal(20))
    y = DeviceVector(array=np.zeros(12))
    cusparse.spmv(device, stream, dA, x, y, 0.0)
    assert np.allclose(y.array, A @ x.array)
    xt = DeviceVector(array=rng.standard_normal(12))
    yt = DeviceVector(array=np.zeros(20))
    cusparse.spmv(device, stream, dA, xt, yt, 0.0, transpose=True)
    assert np.allclose(yt.array, A.T @ xt.array)


def test_sparse_to_dense_and_transpose(device):
    stream = device.streams[0]
    rng = np.random.default_rng(6)
    A = sp.random(7, 11, density=0.4, random_state=rng).tocsr()
    dA, _ = device.upload_sparse(A, stream, 0.0)
    out = DeviceDenseMatrix(array=np.zeros((7, 11)))
    cusparse.sparse_to_dense(device, stream, dA, out, 0.0)
    assert np.allclose(out.array, A.toarray())
    out_t = DeviceDenseMatrix(array=np.zeros((11, 7)))
    cusparse.sparse_to_dense(device, stream, dA, out_t, 0.0, transpose=True)
    assert np.allclose(out_t.array, A.toarray().T)


def test_scatter_gather_roundtrip(device):
    stream = device.streams[0]
    rng = np.random.default_rng(8)
    cluster = DeviceVector(array=rng.standard_normal(10))
    indices = np.array([1, 3, 7])
    local = DeviceVector(array=np.zeros(3))
    cusparse.scatter(device, stream, cluster, indices, local, 0.0)
    assert np.allclose(local.array, cluster.array[indices])
    out = DeviceVector(array=np.zeros(10))
    cusparse.gather(device, stream, local, indices, out, 0.0)
    assert np.allclose(out.array[indices], local.array)
    assert np.allclose(np.delete(out.array, indices), 0.0)
    # accumulate=False overwrites instead of adding
    cusparse.gather(device, stream, local, indices, out, 0.0, accumulate=False)
    assert np.allclose(out.array[indices], local.array)


def test_csc_factor_order_changes_plan_requirements(lower_factor):
    device = Device(cuda_version=CudaVersion.LEGACY)
    stream = device.create_streams(1)[0]
    d_csr, _ = device.upload_sparse(lower_factor, stream, 0.0, order=MatrixOrder.ROW_MAJOR)
    d_csc, _ = device.upload_sparse(lower_factor, stream, 0.0, order=MatrixOrder.COL_MAJOR)
    plan_csr, _ = cusparse.trsm_analysis(device, stream, d_csr, 8, 0.0)
    plan_csc, _ = cusparse.trsm_analysis(device, stream, d_csc, 8, 0.0)
    assert plan_csc.temporary_bytes > plan_csr.temporary_bytes
    plan_col_rhs, _ = cusparse.trsm_analysis(
        device, stream, d_csr, 8, 0.0, rhs_order=MatrixOrder.COL_MAJOR
    )
    assert plan_col_rhs.temporary_bytes > plan_csr.temporary_bytes
