"""Tests of the shared-memory arena transport."""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime.executor import make_executor
from repro.runtime.shm import SharedArena, attach_view, fill_slot, write_slot


def test_layout_offsets_are_contiguous_and_sized():
    arena = SharedArena()
    a = arena.allocate((4, 3))
    b = arena.allocate((5,))
    assert a.offset == 0 and a.size == 12
    assert b.offset == 8 * 12 and b.size == 5
    assert arena.nbytes == 8 * 17


def test_typed_slots_round_trip_and_stay_aligned():
    arena = SharedArena()
    ints = arena.allocate((5,), dtype=np.int32)  # 20 bytes -> padded to 24
    floats = arena.allocate((2, 2))
    assert ints.dtype == "int32" and ints.nbytes == 20
    assert floats.offset == 24 and floats.offset % 8 == 0
    arena.create()
    try:
        arena.view(ints)[...] = np.arange(5, dtype=np.int32)
        arena.view(floats)[...] = np.full((2, 2), 0.5)
        assert arena.view(ints).dtype == np.int32
        assert np.array_equal(arena.view(ints), np.arange(5))
        assert np.array_equal(arena.view(floats), np.full((2, 2), 0.5))
    finally:
        arena.release()


def test_allocate_of_matches_array_shape_and_dtype():
    arena = SharedArena()
    source = np.arange(12, dtype=np.int64).reshape(3, 4)
    slot = arena.allocate_of(source)
    assert slot.shape == (3, 4) and slot.dtype == "int64"
    arena.create()
    try:
        arena.view(slot)[...] = source
        assert np.array_equal(arena.view(slot), source)
    finally:
        arena.release()


def test_parent_write_and_view_round_trip():
    arena = SharedArena()
    slot = arena.allocate((3, 3))
    arena.create()
    values = np.arange(9.0).reshape(3, 3)
    arena.view(slot)[...] = values
    assert np.array_equal(arena.view(slot), values)
    arena.release()


def test_layout_freezes_after_create():
    arena = SharedArena()
    arena.allocate((2,))
    arena.create()
    with pytest.raises(RuntimeError, match="frozen"):
        arena.allocate((2,))
    arena.release()


def test_view_before_create_raises():
    arena = SharedArena()
    slot = arena.allocate((2,))
    with pytest.raises(RuntimeError, match="create"):
        arena.view(slot)


def test_release_is_idempotent_and_frees_the_name():
    arena = SharedArena()
    slot = arena.allocate((2,))
    arena.create()
    name = arena.name
    arena.release()
    arena.release()
    from multiprocessing import shared_memory

    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)
    with pytest.raises(RuntimeError):
        arena.view(slot)


def test_in_process_attach_and_write_round_trip():
    arena = SharedArena()
    slot = arena.allocate((3,))
    arena.create()
    try:
        shm, buf = attach_view(arena.name)
        try:
            write_slot(buf, slot, np.array([1.0, 2.0, 3.0]))
        finally:
            shm.close()
        assert np.array_equal(arena.view(slot), [1.0, 2.0, 3.0])
    finally:
        arena.release()


def test_worker_process_writes_are_visible_to_the_parent():
    arena = SharedArena()
    slot = arena.allocate((4, 2))
    arena.create()
    try:
        with make_executor("processes:1") as ex:
            assert ex.submit(fill_slot, arena.name, slot, 7.5).result()
        assert np.array_equal(arena.view(slot), np.full((4, 2), 7.5))
    finally:
        arena.release()


def test_arena_slots_are_zero_initialized():
    arena = SharedArena()
    slot = arena.allocate((8,))
    arena.create()
    try:
        assert np.array_equal(arena.view(slot), np.zeros(8))
    finally:
        arena.release()
