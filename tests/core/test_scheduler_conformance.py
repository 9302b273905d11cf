"""Conformance suite for every registered WorkScheduler.

Each scheduler plugs its slot-mapping policy into the shared SRMW
machinery of :class:`repro.core.scheduler.WorkScheduler`; these tests
run the *same* protocol assertions against all of them, so a new
scheduler registered tomorrow is checked for free by parameterization.

Two oracles anchor the suite to the outside world:

- **cross-scheduler bit-equality** — ADDS is label-correcting, so final
  distances must not depend on the work schedule; every scheduler must
  produce bit-identical distance arrays (work counts may differ).
- **golden schedule** — the default bucket scheduler must still produce
  exactly the distances, simulated times and work counts pinned in the
  checked-in ``BENCH_pr4.json`` (the refactor moved its code, not its
  behavior).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.common import SolveRequest, get_solver_info
from repro.bench.matrix import MATRICES
from repro.bench.runner import _dist_sha256
from repro.calibration import default_cost, default_gpu
from repro.core.config import AddsConfig
from repro.core.scheduler import (
    DEFAULT_SCHEDULER,
    SCHEDULERS,
    WorkScheduler,
    get_scheduler_info,
    scheduler_names,
)
from repro.errors import ProtocolError, SolverError
from repro.gpu.memory import GlobalPool, SimMemory
from repro.graphs import grid_road, rmat

ALL_SCHEDULERS = scheduler_names()


def make_scheduler(name: str, delta: float = 10.0, **cfgkw) -> WorkScheduler:
    cfg = AddsConfig(
        segment_size=4,
        slots_per_block=32,
        pool_blocks=256,
        **cfgkw,
    )
    mem = SimMemory()
    pool = GlobalPool(cfg.pool_blocks, words_per_block=cfg.slots_per_block)
    q = get_scheduler_info(name).create(mem, pool, cfg, initial_delta=delta)
    for s in range(q.n_buckets):
        q.storage[s].ensure_capacity(4 * cfg.slots_per_block)
    return q


def fill_and_drain(q: WorkScheduler, slot: int, k: int) -> None:
    start = q.reserve(slot, k)
    q.publish(slot, start, np.arange(k, dtype=np.int64), np.arange(float(k)))
    q.advance_read(slot, start + k)
    q.complete(slot, k, epoch=int(q.epoch[slot]))


class TestRegistry:
    def test_builtins_registered(self):
        assert "bucket" in ALL_SCHEDULERS
        assert "mlmq" in ALL_SCHEDULERS
        assert DEFAULT_SCHEDULER in ALL_SCHEDULERS

    def test_unknown_name_rejected(self):
        with pytest.raises(SolverError, match="unknown scheduler"):
            get_scheduler_info("fifo")

    @pytest.mark.parametrize("name", ALL_SCHEDULERS)
    def test_info_metadata(self, name):
        info = SCHEDULERS[name]
        assert info.name == name
        assert info.cls.name == name
        assert issubclass(info.cls, WorkScheduler)
        assert info.description


@pytest.mark.parametrize("name", ALL_SCHEDULERS)
class TestProtocolConformance:
    """The SRMW reserve/publish/read/complete contract, per scheduler."""

    def test_policy_attributes(self, name):
        q = make_scheduler(name)
        assert q.n_buckets >= 1
        assert 0 <= q._band_limit
        assert 1 <= q.max_rotate_burst

    def test_seed_slot_is_in_head_group(self, name):
        q = make_scheduler(name)
        heads = q.head_slots()
        assert q.seed_slot() in heads
        for h in heads:
            assert q.rel_of(h) == 0

    def test_head_slots_lead_assignment_order(self, name):
        q = make_scheduler(name)
        heads = q.head_slots()
        order = q.assign_slots(1)
        assert tuple(order[: len(heads)]) == heads
        assert all(0 <= s < q.n_buckets for s in order)
        assert len(set(order)) == len(order)  # no slot scanned twice

    def test_reserve_publish_read_roundtrip(self, name):
        q = make_scheduler(name)
        slot = q.seed_slot()
        start = q.reserve(slot, 3)
        assert start == 0
        verts = np.array([5, 6, 7], dtype=np.int64)
        dists = np.array([1.5, 2.5, 3.5])
        q.publish(slot, start, verts, dists)
        upper, _ = q.readable_upper(slot)
        assert upper == 3
        rv, rd = q.read_items(slot, 0, 3)
        assert rv.tolist() == [5, 6, 7]
        assert rd.tolist() == [1.5, 2.5, 3.5]
        q.advance_read(slot, 3)
        q.complete(slot, 3, epoch=int(q.epoch[slot]))
        assert q.bucket_drained(slot)
        assert q.outstanding() == 0

    def test_reservation_gap_blocks_reading(self, name):
        """Publish order ≠ reserve order: the later reservation's publish
        must not open the earlier one's unwritten slots."""
        q = make_scheduler(name)
        slot = q.seed_slot()
        a = q.reserve(slot, 2)
        b = q.reserve(slot, 2)
        q.publish(slot, b, np.arange(2, dtype=np.int64), np.arange(2.0))
        upper, _ = q.readable_upper(slot)
        assert upper == 0
        q.publish(slot, a, np.arange(2, dtype=np.int64), np.arange(2.0))
        upper, _ = q.readable_upper(slot)
        assert upper == 4

    def test_advance_read_monotone(self, name):
        q = make_scheduler(name)
        slot = q.seed_slot()
        q.reserve(slot, 4)
        q.publish(slot, 0, np.arange(4, dtype=np.int64), np.arange(4.0))
        q.advance_read(slot, 4)
        with pytest.raises(ProtocolError):
            q.advance_read(slot, 2)

    def test_rotate_guard_unread_work(self, name):
        q = make_scheduler(name)
        slot = q.seed_slot()
        start = q.reserve(slot, 2)
        q.publish(slot, start, np.arange(2, dtype=np.int64), np.arange(2.0))
        with pytest.raises(ProtocolError, match="unread"):
            q.rotate()

    def test_rotate_guard_inflight_completions(self, name):
        q = make_scheduler(name)
        slot = q.seed_slot()
        start = q.reserve(slot, 2)
        q.publish(slot, start, np.arange(2, dtype=np.int64), np.arange(2.0))
        q.advance_read(slot, 2)
        with pytest.raises(ProtocolError, match="CWC"):
            q.rotate()

    def test_rotate_recycles_every_head_slot(self, name):
        q = make_scheduler(name, delta=10.0)
        heads = q.head_slots()
        for slot in heads:
            fill_and_drain(q, slot, 3)
        epochs_before = [int(q.epoch[s]) for s in heads]
        q.rotate()
        assert q.base_dist == 10.0
        assert q.rotations == 1
        for slot, e0 in zip(heads, epochs_before):
            assert q.resv[slot] == 0
            assert q.read[slot] == 0
            assert q.cwc[slot] == 0
            assert int(q.epoch[slot]) == e0 + 1
        # the recycled group is no longer the head group
        assert set(q.head_slots()).isdisjoint(heads) or len(heads) == q.n_buckets

    def test_push_slots_land_in_valid_slots(self, name):
        q = make_scheduler(name, delta=10.0)
        verts = np.arange(8, dtype=np.int64)
        dists = np.array([0.0, 5.0, 10.0, 15.0, 25.0, 35.0, 95.0, 1e6])
        slots = q.push_slots_list(verts, dists)
        assert len(slots) == 8
        assert all(0 <= s < q.n_buckets for s in slots)
        # same-band pushes of the same vertex are stable
        assert slots[0] == q.push_slots_list(verts[:1], dists[:1])[0]

    def test_high_clip_lands_in_tail_slot(self, name):
        q = make_scheduler(name, delta=10.0)
        [slot] = q.push_slots_list(
            np.array([1], dtype=np.int64), np.array([1e12])
        )
        assert q.high_clips == 1
        assert q._is_tail_slot(slot)

    def test_low_clip_lands_in_head_group(self, name):
        q = make_scheduler(name, delta=10.0)
        q.base_dist = 50.0
        [slot] = q.push_slots_list(
            np.array([0], dtype=np.int64), np.array([5.0])
        )
        assert q.low_clips == 1
        assert slot in q.head_slots()

    def test_clip_counting_matches_across_paths(self, name):
        """Scalar, list and vectorized band mapping share one clip rule."""
        qa = make_scheduler(name, delta=10.0)
        qb = make_scheduler(name, delta=10.0)
        dists = np.array([-5.0, 0.0, 15.0, 1e12])
        bands_vec = qa.rel_bands_for(dists).tolist()
        bands_list = qb.rel_bands_list(dists)
        assert bands_vec == bands_list
        assert (qa.low_clips, qa.high_clips) == (qb.low_clips, qb.high_clips)
        assert qa.low_clips == 1 and qa.high_clips == 1

    def test_snapshot_has_uniform_keys(self, name):
        q = make_scheduler(name)
        snap = q.snapshot()
        ref = make_scheduler(DEFAULT_SCHEDULER).snapshot()
        assert set(snap) == set(ref)
        for key in ("head", "base_dist", "delta", "rotations", "total_pushed"):
            assert key in snap


class TestCrossSchedulerEquality:
    """Label-correcting ⇒ final distances are schedule-invariant: every
    scheduler must produce bit-identical distance arrays."""

    @pytest.mark.parametrize(
        "graph",
        [
            grid_road(24, 24, max_weight=512, seed=7),
            rmat(9, edge_factor=8, max_weight=100, seed=8),
        ],
        ids=["road-24x24", "rmat-9"],
    )
    def test_distances_bit_identical(self, graph):
        spec = default_gpu()
        cost = default_cost(spec)
        info = get_solver_info("adds")
        results = {}
        for name in ALL_SCHEDULERS:
            results[name] = info.solve(
                SolveRequest(
                    graph=graph, source=0, spec=spec, cost=cost,
                    options={"scheduler": name},
                )
            )
        ref = results[DEFAULT_SCHEDULER]
        assert ref.stats["scheduler"] == DEFAULT_SCHEDULER
        for name, res in results.items():
            assert res.stats["scheduler"] == name
            assert np.array_equal(res.dist, ref.dist), (
                f"scheduler {name} changed the distances"
            )


class TestGoldenSchedule:
    """The default scheduler must reproduce the pinned BENCH_pr4 numbers:
    the WorkScheduler extraction moved the bucket queue's code, and this
    pins that it moved nothing about its behavior."""

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
        info = get_solver_info("adds")
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
                    options={"scheduler": DEFAULT_SCHEDULER},
                )
            )
            assert _dist_sha256(result.dist) == cell["dist_sha256"], graph_name
            assert float(result.time_us) == cell["time_us"], graph_name
            assert int(result.work_count) == cell["work_count"], graph_name
            checked += 1
        assert checked == len(baseline_cells) == 6
