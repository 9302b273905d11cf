"""Tests for simulated memory: atomics, batch atomic-min, the block pool."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import AllocationError
from repro.gpu import SimMemory
from repro.gpu.memory import WORDS_PER_BLOCK, GlobalPool


@pytest.fixture
def mem():
    return SimMemory()


class TestAtomics:
    def test_atomic_add_returns_old(self, mem):
        a = np.array([5], dtype=np.int64)
        assert mem.atomic_add(a, 0, 3) == 5
        assert a[0] == 8

    def test_atomic_add_on_list(self, mem):
        # the bucket queue keeps its counters as lists of Python ints
        counters = [0, 5]
        old = mem.atomic_add(counters, 1, 3)
        assert old == 5 and type(old) is int
        assert counters == [0, 8]
        assert mem.stats.atomics == 1

    def test_counters(self, mem):
        a = np.array([0], dtype=np.int64)
        mem.atomic_add(a, 0, 1)
        mem.atomic_min_batch(a, np.array([0]), np.array([-1]))
        assert mem.stats.atomics == 2
        assert mem.stats.fences == 0  # counted by the bucket queue itself


class TestAtomicMinBatch:
    def test_simple_batch(self, mem):
        dist = np.array([10, 10, 10], dtype=np.float64)
        winners = mem.atomic_min_batch(
            dist, np.array([0, 2]), np.array([5.0, 20.0])
        )
        assert dist.tolist() == [5, 10, 10]
        assert winners.tolist() == [True, False]

    def test_duplicate_indices_single_winner(self, mem):
        dist = np.array([100.0])
        winners = mem.atomic_min_batch(
            dist, np.array([0, 0, 0]), np.array([7.0, 3.0, 7.0])
        )
        assert dist[0] == 3.0
        assert winners.sum() == 1
        assert winners[1]  # the value that holds the final minimum

    def test_tied_duplicates_one_winner(self, mem):
        dist = np.array([100.0])
        winners = mem.atomic_min_batch(
            dist, np.array([0, 0]), np.array([4.0, 4.0])
        )
        assert winners.sum() == 1

    def test_first_tied_entry_wins(self, mem):
        """Among entries tying on the minimum at one index, the first in
        batch order wins and stores its payload (the predecessor)."""
        dist = np.array([100.0, 100.0])
        pred = np.full(2, -1, dtype=np.int64)
        winners = mem.atomic_min_batch(
            dist,
            np.array([1, 0, 1, 0, 1]),
            np.array([9.0, 4.0, 4.0, 4.0, 4.0]),
            payload=np.array([10, 11, 12, 13, 14]),
            payload_out=pred,
        )
        assert winners.tolist() == [False, True, True, False, False]
        assert dist.tolist() == [4.0, 4.0]
        assert pred.tolist() == [11, 12]

    def test_no_improvement_no_winners(self, mem):
        dist = np.array([1.0, 2.0])
        winners = mem.atomic_min_batch(
            dist, np.array([0, 1]), np.array([5.0, 5.0])
        )
        assert not winners.any()

    def test_empty_batch(self, mem):
        dist = np.array([1.0])
        winners = mem.atomic_min_batch(dist, np.array([], dtype=np.int64), np.array([]))
        assert winners.size == 0

    def test_counts_every_atomic(self, mem):
        dist = np.full(4, 9.0)
        mem.atomic_min_batch(dist, np.array([0, 1, 2]), np.array([1.0, 2.0, 3.0]))
        assert mem.stats.atomics == 3

    def test_matches_serial_semantics(self, mem):
        rng = np.random.default_rng(0)
        dist = rng.uniform(0, 100, size=50)
        idx = rng.integers(0, 50, size=500)
        vals = rng.uniform(0, 100, size=500)
        expect = dist.copy()
        for i, v in zip(idx, vals):
            expect[i] = min(expect[i], v)
        mem.atomic_min_batch(dist, idx, vals)
        assert np.allclose(dist, expect)

    @pytest.mark.parametrize("sizes", [(3, 5), (20, 30), (30, 40, 50)])
    def test_fused_call_contract(self, mem, sizes):
        """One call over a disjoint-across-sub-batch concatenation must be
        bit-equivalent to the sequential per-sub-batch calls — winner mask
        slices, array contents, payload and atomics counter alike."""
        rng = np.random.default_rng(7)
        n_vert = sum(sizes) * 2
        # disjoint index pools per sub-batch; duplicates *within* each one
        pools = []
        lo = 0
        for s in sizes:
            pools.append(rng.integers(lo, lo + s, size=s))
            lo += 2 * s
        values = [rng.uniform(0, 100, size=p.size) for p in pools]
        payloads = [rng.integers(0, 1000, size=p.size) for p in pools]

        solo_dist = rng.uniform(0, 100, size=n_vert)
        fused_dist = solo_dist.copy()
        solo_pred = np.full(n_vert, -1, dtype=np.int64)
        fused_pred = solo_pred.copy()

        solo = SimMemory()
        masks = [
            solo.atomic_min_batch(
                solo_dist, p, v, payload=pl, payload_out=solo_pred
            )
            for p, v, pl in zip(pools, values, payloads)
        ]
        fused_mask = mem.atomic_min_batch(
            fused_dist,
            np.concatenate(pools),
            np.concatenate(values),
            payload=np.concatenate(payloads),
            payload_out=fused_pred,
        )
        np.testing.assert_array_equal(
            fused_mask, np.concatenate(masks)
        )
        np.testing.assert_array_equal(fused_dist, solo_dist)
        np.testing.assert_array_equal(fused_pred, solo_pred)
        assert mem.stats.atomics == solo.stats.atomics


class TestGlobalPool:
    def test_acquire_release_cycle(self):
        pool = GlobalPool(3, words_per_block=16)
        a = pool.acquire()
        b = pool.acquire()
        assert a != b
        assert pool.blocks_in_use == 2
        pool.release(a)
        assert pool.blocks_in_use == 1

    def test_exhaustion_raises(self):
        pool = GlobalPool(1, words_per_block=16)
        pool.acquire()
        with pytest.raises(AllocationError, match="exhausted"):
            pool.acquire()

    def test_double_free_raises(self):
        pool = GlobalPool(2, words_per_block=16)
        a = pool.acquire()
        pool.release(a)
        with pytest.raises(AllocationError, match="double free"):
            pool.release(a)

    def test_unknown_block_release(self):
        pool = GlobalPool(2, words_per_block=16)
        with pytest.raises(AllocationError, match="unknown block"):
            pool.release(99)

    def test_default_block_size_is_the_papers(self):
        pool = GlobalPool(1)
        assert pool.words_per_block == WORDS_PER_BLOCK == 65536

    def test_high_water_mark(self):
        pool = GlobalPool(4, words_per_block=8)
        a = pool.acquire()
        b = pool.acquire()
        pool.release(a)
        pool.release(b)
        pool.acquire()
        assert pool.high_water == 2

    def test_storage_shape(self):
        pool = GlobalPool(2, words_per_block=32)
        assert pool.storage.shape == (2, 32, 2)

    def test_zero_blocks_rejected(self):
        with pytest.raises(AllocationError):
            GlobalPool(0)

    def test_ids_are_last_released_then_lowest_unused(self):
        """The order a pre-filled free list yielded, so block ids and
        high water do not depend on how much storage exists."""
        pool = GlobalPool(words_per_block=4)
        assert [pool.acquire() for _ in range(3)] == [0, 1, 2]
        pool.release(1)
        pool.release(0)
        assert [pool.acquire() for _ in range(3)] == [0, 1, 3]
        assert pool.high_water == 4

    def test_uncapped_storage_grows_and_keeps_contents(self):
        pool = GlobalPool(words_per_block=4)
        blocks = [pool.acquire() for _ in range(3 * GlobalPool.INITIAL_BLOCKS)]
        for b in blocks[: GlobalPool.INITIAL_BLOCKS]:
            pool.vertex_lane[4 * b] = 100 + b
        for _ in range(5 * GlobalPool.INITIAL_BLOCKS):
            blocks.append(pool.acquire())
        assert pool.blocks_in_use == 8 * GlobalPool.INITIAL_BLOCKS
        assert len(pool.storage) == 8 * GlobalPool.INITIAL_BLOCKS
        assert [pool.vertex_lane[4 * b] for b in blocks[: GlobalPool.INITIAL_BLOCKS]] == [
            100 + b for b in blocks[: GlobalPool.INITIAL_BLOCKS]
        ]

    def test_cap_bounds_storage(self):
        pool = GlobalPool(GlobalPool.INITIAL_BLOCKS + 3, words_per_block=4)
        for _ in range(GlobalPool.INITIAL_BLOCKS + 3):
            pool.acquire()
        assert len(pool.storage) == GlobalPool.INITIAL_BLOCKS + 3
        with pytest.raises(AllocationError, match="exhausted"):
            pool.acquire()


class _CountingList(list):
    """A list that counts membership scans (the O(n) guard we removed)."""

    def __init__(self, items):
        super().__init__(items)
        self.contains_calls = 0

    def __contains__(self, item):
        self.contains_calls += 1
        return super().__contains__(item)


class TestPoolReleaseComplexity:
    def test_release_never_scans_the_free_list(self):
        """The double-free guard must be O(1): release goes through the
        membership set, never ``in`` on the free list itself."""
        pool = GlobalPool(64, words_per_block=8)
        pool._free = _CountingList(pool._free)
        blocks = [pool.acquire() for _ in range(64)]
        for b in blocks:
            pool.release(b)
        assert pool._free.contains_calls == 0

    def test_set_guard_still_catches_double_free(self):
        pool = GlobalPool(4, words_per_block=8)
        a = pool.acquire()
        b = pool.acquire()
        pool.release(a)
        pool.release(b)
        with pytest.raises(AllocationError, match="double free"):
            pool.release(a)
        # the set and list stay in lockstep across reuse
        c = pool.acquire()
        pool.release(c)
        assert sorted(pool._free) == sorted(pool._free_set)

