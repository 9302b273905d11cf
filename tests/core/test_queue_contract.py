"""The bucket queue's SRMW contract, and the golden schedule.

- **protocol contract** — reserve/publish/read ordering, the
  reservation-gap rule, the rotation guards and clip accounting of the
  one work queue, :class:`repro.core.bucket_queue.BucketQueue`;
- **golden schedule** — ADDS must still produce exactly the distances,
  simulated times and work counts pinned in the checked-in
  ``BENCH_pr4.json`` (refactors move code, not behavior).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.common import SolveRequest, get_solver
from repro.bench.matrix import MATRICES
from repro.validation import dist_sha256
from repro.calibration import default_cost, default_gpu
from repro.core.bucket_queue import BucketQueue
from repro.core.config import AddsConfig
from repro.errors import ProtocolError
from repro.gpu.memory import GlobalPool, SimMemory


def make_queue(delta: float = 10.0, **cfgkw) -> BucketQueue:
    cfg = AddsConfig(
        segment_size=4,
        slots_per_block=32,
        pool_blocks=256,
        **cfgkw,
    )
    mem = SimMemory()
    pool = GlobalPool(cfg.pool_blocks, words_per_block=cfg.slots_per_block)
    q = BucketQueue(mem, pool, cfg, initial_delta=delta)
    for s in range(q.n_buckets):
        q.ensure_capacity(s, 4 * cfg.slots_per_block)
    return q


class TestProtocolConformance:
    """The SRMW reserve/publish/read/complete contract."""

    def test_reserve_publish_read_roundtrip(self):
        q = make_queue()
        slot = q.head
        start = q.reserve(slot, 3)
        assert start == 0
        verts = np.array([5, 6, 7], dtype=np.int64)
        dists = np.array([1.5, 2.5, 3.5])
        q.publish(slot, start, verts, dists)
        upper, _ = q.readable_upper(slot)
        assert upper == 3
        rv, rd = q.read_items(slot, 0, 3)
        assert rv == [5, 6, 7]
        assert rd == [1.5, 2.5, 3.5]
        q.advance_read(slot, 3)
        q.complete(slot, 3, epoch=int(q.epoch[slot]))
        assert q.bucket_drained(slot)
        assert q.outstanding() == 0

    def test_reservation_gap_blocks_reading(self):
        """Publish order ≠ reserve order: the later reservation's publish
        must not open the earlier one's unwritten slots."""
        q = make_queue()
        slot = q.head
        a = q.reserve(slot, 2)
        b = q.reserve(slot, 2)
        q.publish(slot, b, np.arange(2, dtype=np.int64), np.arange(2.0))
        upper, _ = q.readable_upper(slot)
        assert upper == 0
        q.publish(slot, a, np.arange(2, dtype=np.int64), np.arange(2.0))
        upper, _ = q.readable_upper(slot)
        assert upper == 4

    def test_advance_read_monotone(self):
        q = make_queue()
        slot = q.head
        q.reserve(slot, 4)
        q.publish(slot, 0, np.arange(4, dtype=np.int64), np.arange(4.0))
        q.advance_read(slot, 4)
        with pytest.raises(ProtocolError):
            q.advance_read(slot, 2)

    def test_rotate_guard_unread_work(self):
        q = make_queue()
        slot = q.head
        start = q.reserve(slot, 2)
        q.publish(slot, start, np.arange(2, dtype=np.int64), np.arange(2.0))
        with pytest.raises(ProtocolError, match="unread"):
            q.rotate()

    def test_rotate_guard_inflight_completions(self):
        q = make_queue()
        slot = q.head
        start = q.reserve(slot, 2)
        q.publish(slot, start, np.arange(2, dtype=np.int64), np.arange(2.0))
        q.advance_read(slot, 2)
        with pytest.raises(ProtocolError, match="CWC"):
            q.rotate()

    def test_rotate_recycles_the_head_bucket(self):
        q = make_queue(delta=10.0)
        slot = q.head
        start = q.reserve(slot, 3)
        q.publish(slot, start, np.arange(3, dtype=np.int64), np.arange(3.0))
        q.advance_read(slot, start + 3)
        epoch = int(q.epoch[slot])
        q.complete(slot, 3, epoch=epoch)
        q.rotate()
        assert q.base_dist == 10.0
        assert q.rotations == 1
        assert q.resv[slot] == 0
        assert q.read[slot] == 0
        assert q.cwc[slot] == 0
        assert int(q.epoch[slot]) == epoch + 1
        assert q.head == (slot + 1) % q.n_buckets

    def test_push_slots_land_in_valid_slots(self):
        q = make_queue(delta=10.0)
        dists = [0.0, 5.0, 10.0, 15.0, 25.0, 35.0, 95.0, 1e6]
        groups = q.push_groups(list(range(8)), dists)
        assert sorted(v for _, vs, _ in groups for v in vs) == list(range(8))
        assert all(0 <= s < q.n_buckets for s, _, _ in groups)
        # mapping one item alone lands it where the batch put it
        [(s0, _, _)] = q.push_groups([0], dists)
        assert any(s == s0 and 0 in vs for s, vs, _ in groups)

    def test_high_clip_lands_in_tail_bucket(self):
        q = make_queue(delta=10.0)
        [(slot, _, _)] = q.push_groups([0], [1e12])
        assert q.high_clips == 1
        assert (slot - q.head) % q.n_buckets == q.n_buckets - 1

    def test_low_clip_lands_in_head_bucket(self):
        q = make_queue(delta=10.0)
        q.base_dist = 50.0
        [(slot, _, _)] = q.push_groups([0], [5.0])
        assert q.low_clips == 1
        assert slot == q.head

    def test_clip_counting_matches_across_paths(self):
        """Mapping a batch and mapping its items one at a time give the
        same bands and the same clip counts."""
        qa = make_queue(delta=10.0)
        qb = make_queue(delta=10.0)
        dists = np.array([-5.0, 0.0, 15.0, 1e12])
        bands_one = [qa.rel_bands_list(dists[i : i + 1])[0] for i in range(dists.size)]
        bands_list = qb.rel_bands_list(dists)
        assert bands_one == bands_list == [0, 0, 1, qa.n_buckets - 1]
        assert (qa.low_clips, qa.high_clips) == (qb.low_clips, qb.high_clips)
        assert qa.low_clips == 1 and qa.high_clips == 1


class TestGoldenSchedule:
    """ADDS must reproduce the pinned BENCH_pr4 numbers: every change to
    the queue's code must move nothing about its behavior."""

    BASELINE = Path(__file__).resolve().parents[2] / "BENCH_pr4.json"

    @pytest.fixture(scope="class")
    def baseline_cells(self):
        payload = json.loads(self.BASELINE.read_text())
        return {
            (c["graph"], c["solver"]): c
            for c in payload["cells"]
            if c["solver"] == "adds"
        }

    def test_bucket_matches_pinned_report(self, baseline_cells):
        spec = default_gpu()
        cost = default_cost(spec)
        info = get_solver("adds")
        _solver_list, graphs = MATRICES["medium"]
        checked = 0
        for graph_name, _category, gspec in graphs:
            cell = baseline_cells.get((graph_name, "adds"))
            if cell is None:
                continue
            graph = gspec.build()
            result = info.solve(
                SolveRequest(
                    graph=graph,
                    source=int(cell["source"]),
                    spec=spec,
                    cost=cost,
                )
            )
            assert dist_sha256(result.dist) == cell["dist_sha256"], graph_name
            assert float(result.time_us) == cell["time_us"], graph_name
            assert int(result.work_count) == cell["work_count"], graph_name
            checked += 1
        assert checked == len(baseline_cells) == 6
