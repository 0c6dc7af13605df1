"""Tests of the simulated device (transfer sizes and costs, arena creation, streams)."""

from __future__ import annotations

import pytest

from repro.gpu import CudaVersion, Device, DeviceProperties, MatrixOrder


@pytest.fixture()
def device():
    return Device(
        properties=DeviceProperties(memory_capacity_bytes=2 * 1024**2, default_stream_count=4),
        cuda_version=CudaVersion.LEGACY,
    )


def test_stream_creation_default_and_explicit(device):
    streams = device.create_streams()
    assert len(streams) == 4
    streams = device.create_streams(2)
    assert len(streams) == 2
    with pytest.raises(ValueError):
        device.create_streams(0)


def test_lazy_default_streams():
    device = Device()
    assert len(device.streams) == DeviceProperties().default_stream_count


def test_upload_sparse_allocates_and_charges_its_bytes(device):
    stream = device.create_streams(1)[0]
    smat, op = device.upload_sparse((20, 30), 60, stream, 0.0, label="S")
    assert smat.shape == (20, 30)
    assert smat.nnz == 60
    assert smat.nbytes == 12 * 60 + 8 * 21  # CSR: values + indices + row pointers
    assert smat.allocation.nbytes >= smat.nbytes
    assert device.memory.used_bytes == smat.allocation.nbytes
    assert op.duration == pytest.approx(device.cost_model.transfer(smat.nbytes), rel=1e-12)
    csc, _ = device.upload_sparse((20, 30), 60, stream, 0.0, order=MatrixOrder.COL_MAJOR)
    assert csc.nbytes == 12 * 60 + 8 * 31  # CSC: column pointers
    smat.allocation.release()
    csc.allocation.release()
    assert device.memory.used_bytes == 0


def test_update_sparse_values_charges_only_values(device):
    stream = device.create_streams(1)[0]
    smat, _ = device.upload_sparse((50, 50), 50, stream, 0.0, label="I")
    used_before = device.memory.used_bytes
    op = device.update_sparse_values(smat, stream, 1.0)
    assert device.memory.used_bytes == used_before  # no new allocation
    assert op.name == "h2d-values:I"
    assert op.duration == pytest.approx(device.cost_model.transfer(8 * smat.nnz), rel=1e-12)
    assert op.duration < device.cost_model.transfer(smat.nbytes)


def test_temporary_arena_lifecycle(device):
    device.create_streams(1)
    arena = device.allocate_temporary_arena(reserve_bytes=1024)
    assert arena.capacity_bytes > 0
    assert device.memory.free_bytes == 1024
    with pytest.raises(RuntimeError):
        device.allocate_temporary_arena()
    assert device.require_temporary() is arena


def test_require_temporary_before_creation_raises():
    device = Device()
    with pytest.raises(RuntimeError):
        device.require_temporary()


def test_synchronize_and_reset_timeline(device):
    streams = device.create_streams(3)
    streams[1].submit("k", 5.0, 0.0)
    assert device.synchronize(1.0) == 5.0
    device.reset_timeline()
    assert device.synchronize(0.0) == 0.0
