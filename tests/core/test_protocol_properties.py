"""Property-based tests (hypothesis) for the core protocol invariants.

The paper's §5.2 safety argument is exactly a property: *whatever order
the writers' reservations and publications interleave in, the manager
never reads a slot that has not been fully written*.  Here hypothesis
drives randomized interleavings directly against the queue, plus
value-level properties of the codec, the batch atomics and the solver.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import delta_controller
from repro.core.bucket_queue import BucketQueue
from repro.core.config import AddsConfig
from repro.gpu.memory import GlobalPool, SimMemory


def fresh_queue(segment_size=4):
    cfg = AddsConfig(
        n_buckets=4,
        segment_size=segment_size,
        slots_per_block=32,
        pool_blocks=64,
        max_active_buckets=4,
    )
    pool = GlobalPool(64, words_per_block=32)
    q = BucketQueue(SimMemory(), pool, cfg, initial_delta=10.0)
    q.storage[0].ensure_capacity(512)
    return q


class TestReadableRangeSafety:
    """§5.2: the reader's bound never covers an unpublished slot."""

    @given(
        sizes=st.lists(st.integers(1, 7), min_size=1, max_size=20),
        order=st.randoms(use_true_random=False),
        segment_size=st.sampled_from([1, 2, 4, 8]),
    )
    @settings(max_examples=200, deadline=None)
    def test_never_reads_unwritten(self, sizes, order, segment_size):
        q = fresh_queue(segment_size=segment_size)
        # every writer reserves up front (worst case for the protocol)
        reservations = [(q.reserve(0, k), k) for k in sizes]
        published = np.zeros(sum(sizes), dtype=bool)
        pending = list(reservations)
        order.shuffle(pending)
        for start, k in pending:
            upper, _ = q.readable_upper(0)
            assert published[:upper].all(), (
                f"readable_upper exposed unwritten slot below {upper}"
            )
            q.publish(
                0, start, np.arange(k, dtype=np.int64), np.arange(float(k))
            )
            published[start : start + k] = True
        upper, _ = q.readable_upper(0)
        assert upper == sum(sizes)  # everything published -> all readable

    @given(
        sizes=st.lists(st.integers(1, 5), min_size=2, max_size=12),
        publish_count=st.integers(0, 11),
    )
    @settings(max_examples=200, deadline=None)
    def test_upper_monotone_under_publication(self, sizes, publish_count):
        q = fresh_queue()
        reservations = [(q.reserve(0, k), k) for k in sizes]
        publish_count = min(publish_count, len(reservations))
        prev = 0
        for start, k in reservations[:publish_count]:
            q.publish(0, start, np.arange(k, dtype=np.int64), np.arange(float(k)))
            upper, _ = q.readable_upper(0)
            assert upper >= prev
            prev = upper

    @given(sizes=st.lists(st.integers(1, 9), min_size=1, max_size=15))
    @settings(max_examples=100, deadline=None)
    def test_in_order_publication_fully_readable(self, sizes):
        """When writers happen to publish in reservation order, the whole
        prefix is always readable (no false negatives... beyond segment
        rounding, which the resv_ptr comparison removes)."""
        q = fresh_queue()
        for k in sizes:
            start = q.reserve(0, k)
            q.publish(0, start, np.arange(k, dtype=np.int64), np.arange(float(k)))
            upper, _ = q.readable_upper(0)
            assert upper == start + k


class TestBandMappingProperties:
    @given(
        dists=st.lists(
            st.floats(min_value=0, max_value=1e9, allow_nan=False),
            min_size=1,
            max_size=30,
        ),
        delta=st.floats(min_value=0.01, max_value=1e6),
        base=st.floats(min_value=0, max_value=1e6),
    )
    @settings(max_examples=200)
    def test_bands_in_range_and_monotone(self, dists, delta, base):
        q = fresh_queue()
        q.set_delta(delta)
        q.base_dist = base
        arr = np.sort(np.asarray(dists))
        rel = np.asarray(q.rel_bands_list(arr))
        assert (rel >= 0).all() and (rel <= q.n_buckets - 1).all()
        assert (np.diff(rel) >= 0).all()  # clipping preserves order


class TestPushGroupsProperties:
    """``push_groups`` is the per-item band rule, split in one pass."""

    @given(
        dists=st.lists(
            st.floats(min_value=-1e3, max_value=1e9, allow_nan=False),
            min_size=1,
            max_size=40,
        ),
        head=st.integers(0, 3),
        base=st.floats(min_value=0, max_value=1e4),
        # 1e-310 makes quotients overflow to infinity (the clip fallback)
        delta=st.one_of(
            st.sampled_from([1e-310, 1e-300]),
            st.floats(min_value=0.01, max_value=1e6),
        ),
    )
    @settings(max_examples=300)
    def test_groups_match_per_item_bands(self, dists, head, base, delta):
        q, ref = fresh_queue(), fresh_queue()
        for queue in (q, ref):
            queue.set_delta(delta)
            queue.base_dist = base
            queue.head = head
        vertices = [7 * i + 3 for i in range(len(dists))]
        dist = {v: d for v, d in zip(vertices, dists)}

        groups = q.push_groups(vertices, dist)

        nb = ref.n_buckets
        slots = [(head + ref.rel_bands_list([d])[0]) % nb for d in dists]
        # ascending physical slot, also when the window wraps past slot 0
        assert [s for s, _, _ in groups] == sorted(set(slots))
        for s, vs, ds in groups:
            # input order inside each group
            assert list(vs) == [v for v, t in zip(vertices, slots) if t == s]
            assert list(ds) == [d for d, t in zip(dists, slots) if t == s]
        assert (q.low_clips, q.high_clips) == (ref.low_clips, ref.high_clips)

    def test_empty_batch_has_no_groups(self):
        q = fresh_queue()
        assert list(q.push_groups([], {})) == []
        assert (q.low_clips, q.high_clips) == (0, 0)


class TestAtomicMinBatchProperties:
    @given(
        n=st.integers(1, 20),
        updates=st.lists(
            st.tuples(st.integers(0, 19), st.floats(0, 100, allow_nan=False)),
            max_size=100,
        ),
    )
    @settings(max_examples=200)
    def test_matches_serial_min(self, n, updates):
        mem = SimMemory()
        dist = np.full(n, 50.0)
        idx = np.array([i % n for i, _ in updates], dtype=np.int64)
        vals = np.array([v for _, v in updates], dtype=np.float64)
        expect = dist.copy()
        for i, v in zip(idx, vals):
            expect[i] = min(expect[i], v)
        winners = mem.atomic_min_batch(dist, idx, vals)
        assert np.array_equal(dist, expect)
        # at most one winner per improved index, none per unimproved one
        if idx.size:
            for i in np.unique(idx):
                won = winners[idx == i].sum()
                assert won == (1 if expect[i] < 50.0 else 0)


class TestSolverProperties:
    @given(
        n=st.integers(2, 24),
        edges=st.lists(
            st.tuples(st.integers(0, 23), st.integers(0, 23), st.integers(1, 50)),
            min_size=1,
            max_size=120,
        ),
        delta=st.floats(min_value=0.5, max_value=500),
    )
    @settings(max_examples=60, deadline=None)
    def test_adds_matches_dijkstra_on_random_graphs(self, n, edges, delta):
        from repro.baselines import solve_dijkstra
        from repro.core import solve_adds
        from repro.graphs import from_edge_list

        es = [(u % n, v % n, w) for u, v, w in edges if u % n != v % n]
        if not es:
            es = [(0, 1 % n, 1)]
        g = from_edge_list(n, es, dedupe=True)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(delta_controller, "WARMUP_PASSES", 5)
            mp.setattr(delta_controller, "SETTLE_PASSES", 10)
            r = solve_adds(g, 0, config=AddsConfig(n_wtbs=4), delta=delta)
        ref = solve_dijkstra(g, 0)
        np.testing.assert_allclose(
            np.nan_to_num(r.dist, posinf=-1.0),
            np.nan_to_num(ref.dist, posinf=-1.0),
        )
        # conservation: all spawned work consumed
        assert r.stats["total_pushed"] == r.stats["total_completed"]

    @given(
        n=st.integers(2, 16),
        edges=st.lists(
            st.tuples(st.integers(0, 15), st.integers(0, 15), st.integers(1, 9)),
            min_size=1,
            max_size=60,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_near_far_matches_dijkstra_on_random_graphs(self, n, edges):
        from repro.baselines import solve_dijkstra, solve_nf
        from repro.graphs import from_edge_list

        es = [(u % n, v % n, w) for u, v, w in edges if u % n != v % n]
        if not es:
            es = [(0, 1 % n, 1)]
        g = from_edge_list(n, es, dedupe=True)
        r = solve_nf(g, 0)
        ref = solve_dijkstra(g, 0)
        np.testing.assert_allclose(
            np.nan_to_num(r.dist, posinf=-1.0),
            np.nan_to_num(ref.dist, posinf=-1.0),
        )
