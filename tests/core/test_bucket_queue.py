"""Unit tests for the SRMW bucket queue: the §5.2/§5.4 protocol itself."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bucket_queue import BucketQueue
from repro.core.config import AddsConfig
from repro.errors import ProtocolError
from repro.gpu.memory import GlobalPool, SimMemory


def make_queue(
    n_buckets=4, segment_size=4, slots_per_block=32, delta=10.0, **cfgkw
):
    cfg = AddsConfig(
        n_buckets=n_buckets,
        segment_size=segment_size,
        slots_per_block=slots_per_block,
        pool_blocks=max(64, n_buckets),
        max_active_buckets=min(8, n_buckets),
        **cfgkw,
    )
    mem = SimMemory()
    pool = GlobalPool(cfg.pool_blocks, words_per_block=slots_per_block)
    q = BucketQueue(mem, pool, cfg, initial_delta=delta)
    for s in range(n_buckets):
        q.storage[s].ensure_capacity(4 * slots_per_block)
    return q


class TestBandMapping:
    def test_bands_by_delta(self):
        q = make_queue(delta=10.0)
        rel = q.rel_bands_list(np.array([0.0, 9.9, 10.0, 25.0]))
        assert rel == [0, 0, 1, 2]

    def test_high_clip_to_tail(self):
        q = make_queue(n_buckets=4, delta=10.0)
        rel = q.rel_bands_list(np.array([1000.0]))
        assert rel == [3]
        assert q.high_clips == 1

    def test_low_clip_to_head(self):
        q = make_queue(delta=10.0)
        q.base_dist = 50.0
        rel = q.rel_bands_list(np.array([5.0]))
        assert rel == [0]
        assert q.low_clips == 1

    def test_slot_wraps_circularly(self):
        q = make_queue(n_buckets=4, delta=10.0)
        q.head = 3
        groups = q.push_groups([0, 1, 2], [5.0, 15.0, 25.0])
        # ascending physical slot: the wrapped bands come first
        assert groups == [(0, [1], [15.0]), (1, [2], [25.0]), (3, [0], [5.0])]


class TestWriterProtocol:
    def test_reserve_returns_consecutive_ranges(self):
        q = make_queue()
        assert q.reserve(0, 3) == 0
        assert q.reserve(0, 2) == 3
        assert q.resv[0] == 5

    def test_publish_updates_wcc_per_segment(self):
        q = make_queue(segment_size=4)
        start = q.reserve(0, 6)
        q.publish(0, start, np.arange(6, dtype=np.int64), np.arange(6.0))
        assert q.wcc[0][0] == 4
        assert q.wcc[0][1] == 2

    def test_publish_fences_before_wcc(self):
        q = make_queue()
        fences_before = q.mem.stats.fences
        start = q.reserve(0, 2)
        q.publish(0, start, np.arange(2, dtype=np.int64), np.arange(2.0))
        assert q.mem.stats.fences > fences_before

    def test_wcc_overflow_detected(self):
        q = make_queue(segment_size=4)
        q.reserve(0, 4)
        q.publish(0, 0, np.arange(4, dtype=np.int64), np.arange(4.0))
        with pytest.raises(ProtocolError, match="exceeds N"):
            q.publish(0, 0, np.arange(4, dtype=np.int64), np.arange(4.0))

    def test_reserve_non_positive(self):
        q = make_queue()
        with pytest.raises(ProtocolError):
            q.reserve(0, 0)

    def test_tail_push_counter(self):
        q = make_queue(n_buckets=4)
        q.reserve(3, 5)  # rel 3 == tail
        q.reserve(0, 5)
        assert q.tail_push_fraction() == pytest.approx(0.5)
        q.reset_push_window()
        assert q.tail_push_fraction() == 0.0


class TestReadableRange:
    """§5.2's rules, case by case."""

    def test_nothing_reserved(self):
        q = make_queue()
        upper, _ = q.readable_upper(0)
        assert upper == 0

    def test_full_segments_readable(self):
        q = make_queue(segment_size=4)
        start = q.reserve(0, 8)
        q.publish(0, start, np.arange(8, dtype=np.int64), np.arange(8.0))
        upper, scanned = q.readable_upper(0)
        assert upper == 8
        assert scanned >= 2

    def test_partial_segment_complete_iff_wcc_matches_resv(self):
        q = make_queue(segment_size=4)
        start = q.reserve(0, 2)
        q.publish(0, start, np.arange(2, dtype=np.int64), np.arange(2.0))
        upper, _ = q.readable_upper(0)
        assert upper == 2  # seg_base(0) + WCC(2) == resv(2) -> readable

    def test_gap_blocks_reading(self):
        """Reserved-but-unwritten slots must never be readable: writer A
        reserved [0,2), writer B reserved [2,4) and published first."""
        q = make_queue(segment_size=4)
        a = q.reserve(0, 2)
        b = q.reserve(0, 2)
        q.publish(0, b, np.arange(2, dtype=np.int64), np.arange(2.0))
        upper, _ = q.readable_upper(0)
        # WCC == 2 but seg_base + WCC != resv would be 0+2 != 4: nothing
        # in the segment can be trusted
        assert upper == 0
        # once A publishes, the whole segment opens
        q.publish(0, a, np.arange(2, dtype=np.int64), np.arange(2.0))
        upper, _ = q.readable_upper(0)
        assert upper == 4

    def test_full_segment_then_partial(self):
        q = make_queue(segment_size=4)
        start = q.reserve(0, 7)
        q.publish(0, start, np.arange(7, dtype=np.int64), np.arange(7.0))
        upper, _ = q.readable_upper(0)
        assert upper == 7

    def test_full_segment_then_gap(self):
        q = make_queue(segment_size=4)
        a = q.reserve(0, 4)
        q.publish(0, a, np.arange(4, dtype=np.int64), np.arange(4.0))
        b = q.reserve(0, 3)
        c = q.reserve(0, 1)
        q.publish(0, c, np.array([9], dtype=np.int64), np.array([9.0]))
        upper, _ = q.readable_upper(0)
        assert upper == 4  # second segment has a hole

    def test_read_items_roundtrip(self):
        q = make_queue()
        start = q.reserve(1, 3)
        q.publish(1, start, np.array([5, 6, 7], dtype=np.int64), np.array([1.5, 2.5, 3.5]))
        verts, dists = q.read_items(1, 0, 3)
        assert verts == [5, 6, 7]
        assert dists == [1.5, 2.5, 3.5]

    def test_advance_read_monotone(self):
        q = make_queue()
        q.reserve(0, 4)
        q.publish(0, 0, np.arange(4, dtype=np.int64), np.arange(4.0))
        q.advance_read(0, 4)
        with pytest.raises(ProtocolError):
            q.advance_read(0, 2)


class TestCompletionAndRotation:
    def fill_and_drain(self, q, slot, k):
        start = q.reserve(slot, k)
        q.publish(slot, start, np.arange(k, dtype=np.int64), np.arange(float(k)))
        q.advance_read(slot, start + k)
        q.complete(slot, k, epoch=int(q.epoch[slot]))

    def test_bucket_drained(self):
        q = make_queue()
        assert q.bucket_drained(0)  # empty counts as drained
        start = q.reserve(0, 3)
        q.publish(0, start, np.arange(3, dtype=np.int64), np.arange(3.0))
        assert not q.bucket_drained(0)  # not read
        q.advance_read(0, 3)
        assert not q.bucket_drained(0)  # not completed
        q.complete(0, 3, epoch=0)
        assert q.bucket_drained(0)

    def test_rotation_advances_window(self):
        q = make_queue(n_buckets=4, delta=10.0)
        self.fill_and_drain(q, 0, 3)
        q.rotate()
        assert q.head == 1
        assert q.base_dist == 10.0
        assert q.rotations == 1
        assert q.resv[0] == 0 and q.read[0] == 0 and q.cwc[0] == 0

    def test_rotation_requires_read_out(self):
        q = make_queue()
        start = q.reserve(0, 2)
        q.publish(0, start, np.arange(2, dtype=np.int64), np.arange(2.0))
        with pytest.raises(ProtocolError, match="unread"):
            q.rotate()

    def test_rotation_requires_cwc_match(self):
        """§5.4's guard: rotating while assigned work is in flight is the
        'continuous cramming' bug."""
        q = make_queue()
        start = q.reserve(0, 2)
        q.publish(0, start, np.arange(2, dtype=np.int64), np.arange(2.0))
        q.advance_read(0, 2)
        with pytest.raises(ProtocolError, match="CWC"):
            q.rotate()

    def test_unsafe_rotation_allows_it(self):
        q = make_queue(unsafe_rotation=True)
        start = q.reserve(0, 2)
        q.publish(0, start, np.arange(2, dtype=np.int64), np.arange(2.0))
        q.advance_read(0, 2)
        q.rotate()  # no error
        assert q.head == 1

    def test_late_completion_after_unsafe_rotation_dropped(self):
        q = make_queue(unsafe_rotation=True)
        start = q.reserve(0, 2)
        q.publish(0, start, np.arange(2, dtype=np.int64), np.arange(2.0))
        q.advance_read(0, 2)
        old_epoch = int(q.epoch[0])
        q.rotate()
        q.complete(0, 2, epoch=old_epoch)
        assert q.cwc[0] == 0  # recycled bucket's CWC untouched
        assert q.total_completed == 2  # but globally accounted

    def test_outstanding_counter(self):
        q = make_queue()
        start = q.reserve(0, 5)
        q.publish(0, start, np.arange(5, dtype=np.int64), np.arange(5.0))
        assert q.outstanding() == 5
        q.advance_read(0, 5)
        q.complete(0, 5, epoch=0)
        assert q.outstanding() == 0

    def test_delta_change(self):
        q = make_queue(delta=10.0)
        q.set_delta(20.0)
        assert q.rel_bands_list(np.array([25.0])) == [1]
        with pytest.raises(ProtocolError):
            q.set_delta(0)

    @pytest.mark.parametrize("bad", [float("nan"), 0.0, -1.0])
    def test_non_positive_or_nan_delta_rejected(self, bad):
        with pytest.raises(ProtocolError, match="positive"):
            make_queue(delta=bad)
        q = make_queue(delta=10.0)
        with pytest.raises(ProtocolError, match="positive"):
            q.set_delta(bad)
        assert q.delta == 10.0


class TestWccThroughSimMemory:
    """WCC bumps must be visible to SimMemory's atomic accounting, like
    every other atomic in the codebase (not a raw counter increment)."""

    def test_single_segment_publish_counts_one_atomic(self):
        q = make_queue(segment_size=4)
        before = q.mem.stats.atomics
        start = q.reserve(0, 3)  # one atomic (resv bump)
        segs = q.publish(0, start, np.arange(3), np.zeros(3))
        assert segs == 1
        # reserve's resv bump + one WCC atomic for the single segment
        assert q.mem.stats.atomics - before == 2

    def test_multi_segment_publish_counts_one_atomic_per_segment(self):
        q = make_queue(segment_size=4)
        before = q.mem.stats.atomics
        start = q.reserve(0, 10)  # spans segments 0,1,2
        segs = q.publish(0, start, np.arange(10), np.zeros(10))
        assert segs == 3
        assert q.mem.stats.atomics - before == 1 + 3

    def test_publish_fences_before_wcc(self):
        q = make_queue(segment_size=4)
        fences = q.mem.stats.fences
        start = q.reserve(0, 2)
        q.publish(0, start, np.arange(2), np.zeros(2))
        assert q.mem.stats.fences == fences + 1

    def test_wcc_overflow_detected(self):
        q = make_queue(segment_size=4)
        start = q.reserve(0, 2)
        q.publish(0, start, np.arange(2), np.zeros(2))
        with pytest.raises(ProtocolError, match="exceeds N"):
            q.publish(0, start, np.arange(4), np.zeros(4))  # re-publish overlap
