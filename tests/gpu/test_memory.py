"""Tests of the persistent memory pool and the blocking temporary arena."""

from __future__ import annotations

import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.memory import AllocationError, MemoryPool, TemporaryArena


def test_pool_basic_accounting():
    pool = MemoryPool(10_000)
    a = pool.allocate(1000, label="a")
    b = pool.allocate(100)
    assert pool.used_bytes == a.nbytes + b.nbytes
    assert pool.allocation_count == 2
    assert pool.peak_bytes == pool.used_bytes
    a.release()
    assert pool.used_bytes == b.nbytes
    # release is idempotent
    a.release()
    assert pool.used_bytes == b.nbytes


def test_pool_rounds_up_to_granularity():
    pool = MemoryPool(10_000)
    a = pool.allocate(1)
    assert a.nbytes == 256
    b = pool.allocate(257)
    assert b.nbytes == 512


def test_pool_exhaustion_raises():
    pool = MemoryPool(1024)
    pool.allocate(1024)
    with pytest.raises(AllocationError):
        pool.allocate(1)


def test_pool_invalid_sizes():
    with pytest.raises(ValueError):
        MemoryPool(0)
    pool = MemoryPool(1024)
    with pytest.raises(ValueError):
        pool.allocate(-1)


def test_arena_basic_and_oversized_request():
    arena = TemporaryArena(2048)
    a = arena.allocate(512)
    assert arena.used_bytes == 512
    assert arena.free_bytes == 2048 - 512
    a.release()
    with pytest.raises(AllocationError):
        arena.allocate(4096)


def test_arena_blocks_until_memory_is_released():
    """A thread waiting for temporary memory resumes once another frees it."""
    arena = TemporaryArena(1024)
    first = arena.allocate(1024)
    acquired = threading.Event()
    results: dict[str, object] = {}

    def worker():
        allocation = arena.allocate(512, timeout=5.0)
        results["allocation"] = allocation
        acquired.set()

    thread = threading.Thread(target=worker)
    thread.start()
    time.sleep(0.05)
    assert not acquired.is_set()  # still blocked
    first.release()
    assert acquired.wait(timeout=5.0)
    thread.join(timeout=5.0)
    assert arena.blocking_waits == 1
    assert results["allocation"].nbytes == 512  # type: ignore[union-attr]


def test_arena_timeout():
    arena = TemporaryArena(1024)
    arena.allocate(1024)
    with pytest.raises(AllocationError):
        arena.allocate(512, timeout=0.05)


def test_arena_peak_tracking():
    arena = TemporaryArena(4096)
    a = arena.allocate(1024)
    b = arena.allocate(2048)
    assert arena.peak_bytes == a.nbytes + b.nbytes
    a.release()
    b.release()
    assert arena.used_bytes == 0
    assert arena.peak_bytes == 3072


def test_pool_peak_bytes_persists_across_release_and_reuse():
    """The high-water mark survives full drains and later smaller loads."""
    pool = MemoryPool(10_000)
    a = pool.allocate(4096)
    b = pool.allocate(2048)
    high_water = pool.used_bytes
    a.release()
    b.release()
    assert pool.used_bytes == 0
    c = pool.allocate(256)
    assert pool.used_bytes == 256
    assert pool.peak_bytes == high_water  # not reset by the drain
    assert pool.allocation_count == 3
    c.release()
    assert pool.free_bytes == pool.capacity_bytes


def test_arena_oversized_request_fails_fast_while_memory_is_held():
    """A request above the arena capacity must raise immediately — waiting
    for other threads to release could never satisfy it."""
    arena = TemporaryArena(1024)
    held = arena.allocate(512)
    start = time.monotonic()
    with pytest.raises(AllocationError, match="exceeds the arena"):
        arena.allocate(4096, timeout=60.0)
    assert time.monotonic() - start < 1.0  # no blocking wait happened
    assert arena.blocking_waits == 0
    assert arena.allocation_count == 1
    held.release()


def test_arena_counts_each_blocked_allocation():
    """Every allocation that had to wait bumps the counter once, even when
    several waiters pile up behind one hog."""
    arena = TemporaryArena(1024)
    hog = arena.allocate(1024)
    done = threading.Barrier(3)

    def worker():
        arena.allocate(256, timeout=5.0).release()
        done.wait(timeout=5.0)

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for t in threads:
        t.start()
    time.sleep(0.05)
    hog.release()
    done.wait(timeout=5.0)
    for t in threads:
        t.join(timeout=5.0)
    assert arena.blocking_waits == 2
    assert arena.used_bytes == 0


@settings(max_examples=30, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=2000), min_size=1, max_size=30)
)
def test_property_pool_usage_never_negative_and_bounded(sizes):
    """Property: allocate-then-release in any order keeps usage within bounds."""
    capacity = 256 * 64
    pool = MemoryPool(capacity)
    live = []
    for size in sizes:
        try:
            live.append(pool.allocate(size))
        except AllocationError:
            if live:
                live.pop(0).release()
        assert 0 <= pool.used_bytes <= capacity
        assert pool.peak_bytes <= capacity
    for allocation in live:
        allocation.release()
    assert pool.used_bytes == 0
