"""Tests for the §5.3 FIFO block allocator and translation caches."""

from __future__ import annotations

import ctypes

import numpy as np
import pytest

from repro.core.block_alloc import N_SETS, BucketStorage, TranslationCache
from repro.errors import AllocationError, ProtocolError
from repro.gpu.memory import GlobalPool


@pytest.fixture
def pool():
    return GlobalPool(16, words_per_block=64)


@pytest.fixture
def storage(pool):
    return BucketStorage(pool, slots_per_block=64, name="t")


class TestCapacity:
    def test_starts_empty(self, storage):
        assert storage.capacity == 0
        assert list(storage.table) == []

    def test_ensure_capacity_allocates_blocks(self, storage):
        added = storage.ensure_capacity(100)
        assert added == 2
        assert storage.capacity == 128
        assert list(storage.table) == [0, 1]  # virtual block -> pool block

    def test_ensure_capacity_idempotent(self, storage):
        storage.ensure_capacity(100)
        assert storage.ensure_capacity(100) == 0

    def test_pool_exhaustion_propagates(self, pool):
        s = BucketStorage(pool, slots_per_block=64)
        with pytest.raises(AllocationError, match="exhausted"):
            s.ensure_capacity(64 * 17)

    def test_block_size_must_fit_pool(self, pool):
        with pytest.raises(AllocationError):
            BucketStorage(pool, slots_per_block=128)


class TestIndexSplit:
    """The paper's 16/16-bit split, generalized to (block, offset)."""

    def test_write_read_across_block_boundary(self, storage):
        storage.ensure_capacity(128)
        verts = list(range(60, 70))
        dists = [0.5 + d for d in range(160, 170)]
        storage.write_range(60, verts, dists)  # spans blocks 0 and 1
        v, d = storage.read_range(60, 70)
        assert v == verts
        assert d == dists

    def test_single_slot(self, storage):
        storage.ensure_capacity(1)
        storage.write_range(5, [42], [99.5])
        v, d = storage.read_range(5, 6)
        assert v == [42] and d == [99.5]

    def test_write_beyond_capacity_rejected(self, storage):
        storage.ensure_capacity(64)
        with pytest.raises(ProtocolError, match="outside allocated"):
            storage.write_range(60, list(range(10)), [0.0] * 10)

    def test_read_unallocated_rejected(self, storage):
        with pytest.raises(ProtocolError, match="unallocated"):
            storage.read_range(0, 4)

    def test_write_arrays_read_as_address_runs(self, storage, pool):
        # pool blocks 0 and 2 back the bucket's virtual blocks 0 and 1,
        # so the range [60, 70) is two runs that do not abut
        storage.ensure_capacity(64)
        assert pool.acquire() == 1
        storage.ensure_capacity(128)
        verts = np.arange(60, 70)
        dists = np.arange(160.5, 170.5)
        storage.write_range(60, verts, dists)
        out = memoryview(np.zeros(6, dtype=np.int64))
        assert storage.address_runs(60, 70, out) == 2
        items = []
        for addr, count in zip(out[0:4:2], out[1:4:2]):
            words = np.ctypeslib.as_array(
                (ctypes.c_int64 * (2 * count)).from_address(addr))
            items += list(zip(words[0::2].tolist(),
                              words[1::2].view(np.float64).tolist()))
        assert items == list(zip(verts.tolist(), dists.tolist()))
        with pytest.raises(ProtocolError, match="unallocated slot 128"):
            storage.address_runs(120, 130, out)

    def test_empty_ranges(self, storage):
        v, d = storage.read_range(10, 10)
        assert v == d == []
        storage.write_range(0, [], [])


class TestFifoRetire:
    def test_retire_whole_blocks_only(self, storage, pool):
        storage.ensure_capacity(192)  # 3 blocks
        assert storage.retire_below(63) == 0  # partial block: keep
        assert storage.retire_below(64) == 1
        assert storage.retire_below(190) == 1  # only block 1 fully below
        assert pool.blocks_in_use == 1
        # retired entries read -1; the capacity stays where it was
        assert list(storage.table) == [-1, -1, 2]
        assert (storage.capacity, storage.retire_at) == (192, 192)

    def test_data_above_retire_point_survives(self, storage):
        storage.ensure_capacity(192)
        storage.write_range(130, [7], [8.0])
        storage.retire_below(128)
        v, p = storage.read_range(130, 131)
        assert v[0] == 7

    def test_read_below_retire_point_fails(self, storage):
        storage.ensure_capacity(128)
        storage.retire_below(64)
        with pytest.raises(ProtocolError):
            storage.read_range(0, 4)

    def test_reset_frees_everything(self, storage, pool):
        storage.ensure_capacity(256)
        storage.retire_below(64)
        storage.reset()
        assert pool.blocks_in_use == 0
        assert storage.capacity == 0
        assert list(storage.table) == [] and storage.retire_at == 64
        # reusable after reset
        storage.ensure_capacity(64)
        storage.write_range(0, [1], [2.0])

    def test_grow_shrink_grow_reuses_pool(self, pool):
        """The FIFO usage pattern: blocks cycle through the arena."""
        s = BucketStorage(pool, slots_per_block=64)
        for epoch in range(10):
            s.ensure_capacity((epoch + 1) * 640)  # keeps growing virtually
            s.retire_below(epoch * 640 + 600)
        assert sum(blk >= 0 for blk in s.table) <= 2
        assert pool.high_water < pool.num_blocks


class TestTranslationCache:
    def test_miss_then_hit(self):
        c = TranslationCache()
        assert c.access(3) is False
        assert c.access(3) is True
        assert c.hits == 1 and c.misses == 1

    def test_direct_mapped_conflict(self):
        c = TranslationCache()
        c.access(1)
        c.access(1 + N_SETS)  # same set: evicts
        assert c.access(1) is False

    def test_sequential_scan_mostly_hits(self):
        """FIFO access pattern: each block is touched many times in a row,
        so the direct-mapped cache almost always hits — the paper's reason
        the extra indirection is cheap."""
        c = TranslationCache()
        for i in range(1000):
            c.access(i // 100)
        assert c.hits / (c.hits + c.misses) > 0.98
