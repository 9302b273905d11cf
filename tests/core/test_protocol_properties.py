"""Property-based tests (hypothesis) for the core protocol invariants.

The paper's §5.2 safety argument is exactly a property: *whatever order
the writers' reservations and publications interleave in, the manager
never reads a slot that has not been fully written*.  Here hypothesis
drives randomized interleavings directly against the queue, plus
value-level properties of the codec, the batch atomics and the solver.
"""

from __future__ import annotations

import ctypes
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import native
from repro.calibration import default_gpu
from repro.core import delta_controller
from repro.core.bucket_queue import BucketQueue
from repro.core.config import AddsConfig
from repro.core.wtb import _native_publish, _python_publish
from repro.errors import ProtocolError
from repro.gpu.device import Device
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
    q.ensure_capacity(0, 512)
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


@st.composite
def push_batches(draw):
    """``(dists, head, base, delta)``: a batch of pushes and the window it
    is banded under.  The batch mixes arbitrary and below-window
    distances with ones on band boundaries (``base + j * delta``, where
    float ``//`` and ``floor(a / b)`` part), the head wraps, and Δ gets
    tiny enough for the quotient to overflow to infinity (the clip
    fallback)."""
    head = draw(st.integers(0, 3))
    base = draw(st.floats(min_value=0, max_value=1e4))
    delta = draw(st.one_of(
        st.sampled_from([1e-310, 1e-300]),
        st.floats(min_value=0.01, max_value=1e6),
    ))
    on_boundary = st.integers(-1, 5).map(lambda j: base + j * delta)
    dists = draw(st.lists(
        st.one_of(st.floats(min_value=-1e3, max_value=1e9, allow_nan=False),
                  on_boundary),
        min_size=1,
        max_size=40,
    ))
    return dists, head, base, delta


def windowed_queues(head, base, delta):
    """Two fresh queues whose window is at ``(head, base, delta)``."""
    queues = [fresh_queue(), fresh_queue()]
    for queue in queues:
        queue.set_delta(delta)
        queue.base_dist = base
        queue.head = head
    return queues


def publishing_queue(head, base, delta, prior, backed):
    """A queue on its own device whose window is at ``(head, base, delta)``,
    with ``prior[s]`` slots of bucket ``s`` already reserved (by writers
    that have not published yet) and ``backed[s]`` blocks allocated."""
    dev = Device(default_gpu())
    cfg = AddsConfig(n_buckets=4, segment_size=4, slots_per_block=32,
                     pool_blocks=64, max_active_buckets=4)
    q = BucketQueue(dev.mem, GlobalPool(64, words_per_block=32), cfg,
                    initial_delta=10.0)
    q.set_delta(delta)
    q.base_dist = base
    q.head = head
    for s in range(q.n_buckets):
        q.resv[s] = prior[s]
        q.ensure_capacity(s, 32 * backed[s])
    return q, dev


def publishers(q, dev, vertices, dist):
    """Worker 0's ``publish`` of ``vertices`` (their distances in
    ``dist``), natively and through the Python loop, on the queue each
    is given: ``{"native": publish(q), "python": publish(q)}``."""
    def native_publish(q):
        nw, nb = len(vertices), q.n_buckets
        arrays = [np.asarray(dist, dtype=np.float64), np.empty(nw, dtype=np.int64),
                  np.empty(nw), np.array(vertices, dtype=np.int64),
                  np.empty(nw, dtype=np.int64), np.empty(nw),
                  np.zeros(3 * nb, dtype=np.int64)]
        d, log_u, log_d, win, grp_v, grp_d, grp = (a.ctypes.data for a in arrays)
        ctx = native.RelaxCtx(log_cap=nw, dist=d, log_u=log_u, log_d=log_d)
        buf = native.WinBuf(cap=nw, win=win, grp_v=grp_v, grp_d=grp_d, grp=grp)
        state = SimpleNamespace(queue=q, device=dev)
        publish = _native_publish(state, native.load(), ctypes.addressof(ctx), [buf])
        return lambda: (yield from publish(0, nw)), (arrays, ctx, buf)

    def python_publish(q):
        state = SimpleNamespace(queue=q, device=dev, dist=np.asarray(dist, dtype=np.float64))
        publish = _python_publish(state, lambda wid, nw: list(vertices))
        return lambda: (yield from publish(0, len(vertices))), state

    return {"native": native_publish, "python": python_publish}


def drive(publish, q):
    """Run one publication to its end, granting each capacity wait
    exactly the capacity it needs: ``(waits, push_cost)``, each wait as
    ``(bucket, need)``."""
    gen, _held = publish
    gen = gen()
    waits = []
    try:
        while True:
            kind, ready, key = next(gen)
            s = q.cap_keys.index(key)
            need = q.resv[s]  # the waiting group's reservation is the last
            assert kind == "wait" and not ready()
            waits.append((s, need))
            q.ensure_capacity(s, need)
            assert ready()
    except StopIteration as done:
        return waits, done.value


def queue_state(q, dev):
    """Everything the writer path leaves behind, bit for bit."""
    stats = dev.mem.stats
    return (list(q.resv), [list(w) for w in q.wcc], q.pool.storage.tobytes(),
            q.total_pushed, q.pushes_since_check, q.tail_pushes_since_check,
            stats.atomics, stats.fences, q.low_clips, q.high_clips)


class TestPushGroupsProperties:
    """``push_groups`` is the per-item band rule, split in one pass."""

    @given(push_batches())
    @settings(max_examples=300)
    def test_groups_match_per_item_bands(self, batch):
        dists, head, base, delta = batch
        q, ref = windowed_queues(head, base, delta)
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

    @pytest.mark.skipif(native.load() is None, reason="native kernels unavailable")
    @given(
        batch=push_batches(),
        prior=st.lists(st.integers(0, 80), min_size=4, max_size=4),
        backed=st.lists(st.integers(0, 3), min_size=4, max_size=4),
    )
    # band boundaries where floor((d - base) / delta) is one band off, and
    # where the inexact quotient needs float //'s round-up to the integer
    @example(batch=([0.03, 0.9], 0, 0.0, 0.01), prior=[0] * 4, backed=[0] * 4)
    @example(batch=([84.21770554777032], 1, 74.31770554777032, 3.3),
             prior=[5, 40, 0, 70], backed=[1, 1, 0, 2])
    @settings(max_examples=300, deadline=None)
    def test_publish_call_matches_python_loop(self, batch, prior, backed):
        """The native publication equals the Python loop's: the same
        capacity waits in order, reservations, WCC arrays, arena words,
        counters, clips and push cost, while the grants grow the pool
        (and move its arena) between a wait and its resume."""
        dists, head, base, delta = batch
        vertices = [7 * i + 3 for i in range(len(dists))]
        dist = np.zeros(vertices[-1] + 1)
        dist[vertices] = dists
        got = {}
        for path in ("native", "python"):
            q, dev = publishing_queue(head, base, delta, prior, backed)
            waits, push_cost = drive(publishers(q, dev, vertices, dist)[path](q), q)
            got[path] = waits, push_cost.hex(), queue_state(q, dev)
        assert got["native"] == got["python"]


class TestPublishErrors:
    """A group the writer path must refuse raises ``ProtocolError`` on
    both paths; natively the failing group writes no slot."""

    def setup(self, path, spoil):
        q, dev = publishing_queue(0, 0.0, 10.0, [4, 0, 0, 0], [2, 0, 0, 0])
        spoil(q)
        vertices = [3, 5, 7]
        dist = np.zeros(8)  # every winner bands into bucket 0
        arena = q.pool.storage.copy()
        return q, publishers(q, dev, vertices, dist)[path](q), arena

    @pytest.mark.parametrize("path", [
        pytest.param("native", marks=pytest.mark.skipif(
            native.load() is None, reason="native kernels unavailable")),
        "python",
    ])
    def test_full_segment(self, path):
        # slots [4, 7) fall in segment 1, which already counts N
        def spoil(q):
            q.wcc[0][1] = q.segment_size

        q, publish, arena = self.setup(path, spoil)
        with pytest.raises(ProtocolError, match="bucket 0: segment 1 WCC 7 exceeds N"):
            drive(publish, q)
        if path == "native":
            assert np.array_equal(q.pool.storage, arena)
            assert list(q.wcc[0][:2]) == [0, q.segment_size]

    @pytest.mark.parametrize("path", [
        pytest.param("native", marks=pytest.mark.skipif(
            native.load() is None, reason="native kernels unavailable")),
        "python",
    ])
    def test_retired_block_inside_the_reservation(self, path):
        # slots [30, 33) straddle blocks 0 and 1; block 1's entry is gone
        def spoil(q):
            q.resv[0] = 30
            q.storage[0].table[1] = -1

        q, publish, arena = self.setup(path, spoil)
        with pytest.raises(ProtocolError,
                           match=r"bucket b0: write \[30, 33\) outside allocated range"):
            drive(publish, q)
        if path == "native":
            assert np.array_equal(q.pool.storage, arena)


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
