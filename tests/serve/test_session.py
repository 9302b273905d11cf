"""Session: coalescing, demux, admission, timeouts, determinism.

The satellite contract, spelled out as tests:

- N same-graph queries coalesce into one dispatched batch whose unique
  sources are solved exactly once, and every query demuxes the answer
  of *its* source;
- cache hit/miss/invalidate drive the solve count (landmark reuse);
- admission past ``max_pending`` rejects synchronously, timeouts degrade
  (before dispatch when the deadline already passed, after the solve
  when the answer arrived late — the late answer still warms the cache);
- every served distance array is bit-identical to calling the solver
  directly.
"""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from repro.baselines.common import SOLVERS, SolveRequest, get_solver, register_solver
from repro.errors import AdmissionError, EngineError, ServeError, ServeTimeout
from repro.graphs import grid_road, update_stream
from repro.serve import Batcher, Query, Session


def make_session(**kw):
    kw.setdefault("solver", "dijkstra")
    kw.setdefault("autostart", False)
    return Session(**kw)


class TestBatcherPlanning:
    def _q(self, graph_id, source, deadline=None):
        return Query(
            graph_id=graph_id,
            source=source,
            targets=None,
            submitted_at=0.0,
            submitted_mono=0.0,
            deadline=deadline,
        )

    def test_same_graph_queries_form_one_plan(self):
        b = Batcher(max_batch=8)
        plans, expired = b.plan([self._q("g", 0), self._q("g", 1), self._q("g", 0)], 0.0)
        assert not expired
        assert len(plans) == 1
        assert plans[0].sources == [0, 1]  # deduped, first-seen order
        assert plans[0].size == 3

    def test_graphs_split_into_separate_plans(self):
        b = Batcher(max_batch=8)
        plans, _ = b.plan([self._q("a", 0), self._q("b", 0), self._q("a", 1)], 0.0)
        assert [(p.graph_id, p.sources) for p in plans] == [("a", [0, 1]), ("b", [0])]

    def test_max_batch_caps_unique_sources(self):
        b = Batcher(max_batch=2)
        plans, _ = b.plan([self._q("g", s) for s in (0, 1, 2, 0)], 0.0)
        assert [p.sources for p in plans] == [[0, 1], [2]]
        # the repeat of source 0 rides in the chunk that solves source 0
        assert [q.source for q in plans[0].queries] == [0, 1, 0]
        assert [q.source for q in plans[1].queries] == [2]

    def test_expired_queries_never_reach_a_plan(self):
        b = Batcher()
        live, dead = self._q("g", 0), self._q("g", 1, deadline=5.0)
        plans, expired = b.plan([live, dead], now_mono=10.0)
        assert expired == [dead]
        assert [q.source for q in plans[0].queries] == [0]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Batcher(window_s=-1)
        with pytest.raises(ValueError):
            Batcher(max_batch=0)


class TestCoalescing:
    def test_n_queries_one_source_one_solve(self, small_road):
        with make_session() as s:
            s.add_graph("road", small_road)
            futs = [s.submit("road", 3) for _ in range(6)]
            s.serve_pending()
            assert s.dispatched == 1  # one solve served all six
            assert len(s.batch_sizes) == 1 and s.batch_sizes[0] == 6
            dists = [f.result().dist for f in futs]
            for d in dists[1:]:
                assert d is dists[0]  # literally the same cached array

    def test_demux_routes_each_query_to_its_source(self, small_road):
        with make_session() as s:
            s.add_graph("road", small_road)
            futs = {src: s.submit("road", src) for src in (0, 5, 9)}
            s.serve_pending()
            assert s.dispatched == 3
            for src, fut in futs.items():
                r = fut.result()
                assert r.source == src
                assert r.dist[src] == 0.0

    def test_target_queries_slice_the_full_solve(self, line_graph):
        with make_session() as s:
            s.add_graph("line", line_graph)
            fut = s.submit("line", 0, targets=[5, 2])
            s.serve_pending()
            r = fut.result()
            assert np.array_equal(r.target_dist, [5.0, 2.0])
            assert r.targets == (5, 2)

    def test_batch_size_metadata_and_counter(self, small_road):
        with make_session() as s:
            s.add_graph("road", small_road)
            futs = [s.submit("road", i % 2) for i in range(4)]
            s.serve_pending()
            assert all(f.result().batch_size == 4 for f in futs)
            assert s.counters()["serve_batched"] == 4
            assert s.batch_sizes == [4]


class TestCacheIntegration:
    def test_second_round_hits_cache(self, small_road):
        with make_session() as s:
            s.add_graph("road", small_road)
            f1 = s.submit("road", 2)
            s.serve_pending()
            f2 = s.submit("road", 2)
            s.serve_pending()
            assert s.dispatched == 1
            assert not f1.result().from_cache
            assert f2.result().from_cache
            assert s.counters()["serve_cache_hits"] == 1

    def test_invalidate_forces_resolve(self, small_road):
        with make_session() as s:
            s.add_graph("road", small_road)
            s.submit("road", 2)
            s.serve_pending()
            assert s.invalidate("road") == 1
            f = s.submit("road", 2)
            s.serve_pending()
            assert s.dispatched == 2
            assert not f.result().from_cache

    def test_replacing_a_graph_invalidates_its_answers(self, small_road, small_mesh):
        with make_session() as s:
            s.add_graph("g", small_road)
            s.submit("g", 0)
            s.serve_pending()
            s.add_graph("g", small_mesh)
            f = s.submit("g", 0)
            s.serve_pending()
            r = f.result()
            assert not r.from_cache
            assert r.dist.shape[0] == small_mesh.num_vertices

    def test_lru_bound_holds_under_traffic(self, small_road):
        with make_session(cache_entries=2) as s:
            s.add_graph("road", small_road)
            for src in range(5):
                s.submit("road", src)
            s.serve_pending()
            assert len(s.cache) == 2


class TestAdmissionAndErrors:
    def test_rejects_past_max_pending(self, small_road):
        with make_session(max_pending=2) as s:
            s.add_graph("road", small_road)
            s.submit("road", 0)
            s.submit("road", 1)
            with pytest.raises(AdmissionError):
                s.submit("road", 2)
            assert s.counters()["serve_rejected"] == 1
            s.serve_pending()  # queue drained -> admission reopens
            s.submit("road", 2)

    def test_unknown_graph_rejected_at_submit(self, small_road):
        with make_session() as s:
            s.add_graph("road", small_road)
            with pytest.raises(ServeError, match="unknown graph"):
                s.submit("nope", 0)

    def test_out_of_range_source_and_targets(self, line_graph):
        with make_session() as s:
            s.add_graph("line", line_graph)
            with pytest.raises(ServeError, match="out of range"):
                s.submit("line", 99)
            with pytest.raises(ServeError, match="out of range"):
                s.submit("line", 0, targets=[99])
            # numpy would silently answer dist[-1]; the session must not
            with pytest.raises(ServeError, match="-1"):
                s.submit("line", 0, targets=[1, -1])

    @pytest.mark.parametrize(
        "source, targets",
        [(1.5, None), ("3", None), (True, None), (0, [2.7]), (0, ["2"]), (0, [False])],
    )
    def test_non_integer_source_or_target_rejected(self, line_graph, source, targets):
        """``int()`` would serve source 1 for 1.5 and target 2 for 2.7."""
        with make_session() as s:
            s.add_graph("line", line_graph)
            with pytest.raises(ServeError, match="integer"):
                s.submit("line", source, targets)
            assert s.counters()["serve_admitted"] == 0

    def test_numpy_integer_source_and_targets_served(self, line_graph):
        with make_session() as s:
            s.add_graph("line", line_graph)
            r = s.query("line", np.int64(0), targets=np.array([5, 2], dtype=np.int32))
            assert r.source == 0 and type(r.source) is int
            assert r.targets == (5, 2)
            assert np.array_equal(r.target_dist, [5.0, 2.0])

    def test_bad_requests_consume_no_queue_space(self, small_road):
        with make_session(max_pending=1) as s:
            s.add_graph("road", small_road)
            for _ in range(3):
                with pytest.raises(ServeError):
                    s.submit("road", 10**6)
            s.submit("road", 0)  # still admitted

    def test_solver_failure_fails_the_future_not_the_session(
        self, small_road, fault_solvers
    ):
        with make_session(solver="eng-crash") as s:
            s.add_graph("road", small_road)
            f = s.submit("road", 0)
            s.serve_pending()
            with pytest.raises(ServeError, match="injected failure"):
                f.result()

    def test_submit_after_close_raises(self, small_road):
        s = make_session()
        s.add_graph("road", small_road)
        s.close()
        with pytest.raises(ServeError, match="closed"):
            s.submit("road", 0)


class TestTimeouts:
    def test_expired_before_dispatch_never_solves(self, small_road):
        with make_session() as s:
            s.add_graph("road", small_road)
            f = s.submit("road", 0, timeout_s=0.0)
            s.serve_pending()
            with pytest.raises(ServeTimeout):
                f.result()
            assert s.dispatched == 0
            assert s.counters()["serve_timeouts"] == 1

    def test_late_answer_degrades_but_warms_cache(self, small_road, fault_solvers):
        # eng-hang sleeps longer than the deadline: the query times out
        # *after* the solve, and the answer still lands in the cache for
        # the next caller.
        with make_session(
            solver="eng-hang", options={"hang_s": 0.05}
        ) as s:
            s.add_graph("road", small_road)
            f = s.submit("road", 0, timeout_s=0.01)
            s.serve_pending()
            with pytest.raises(ServeTimeout):
                f.result()
            assert s.counters()["serve_timeouts"] == 1
            assert s.cache.peek("road", 0) is not None
            f2 = s.submit("road", 0)
            s.serve_pending()
            assert f2.result().from_cache


class TestDeterminism:
    def test_served_distances_bit_match_direct_solves(self, small_road, small_mesh):
        info = get_solver("dijkstra")
        with make_session() as s:
            s.add_graph("road", small_road)
            s.add_graph("mesh", small_mesh)
            futs = []
            for src in (0, 7, 31):
                futs.append(("road", src, s.submit("road", src)))
                futs.append(("mesh", src, s.submit("mesh", src)))
            s.serve_pending()
            # repeat traffic: cached answers must bit-match too
            futs.append(("road", 7, s.submit("road", 7)))
            s.serve_pending()
            graphs = {"road": small_road, "mesh": small_mesh}
            for gid, src, fut in futs:
                direct = info.solve(SolveRequest(graph=graphs[gid], source=src))
                assert np.array_equal(fut.result().dist, direct.dist)

    def test_device_solver_through_session(self, tiny_graph):
        from repro.calibration import sim_cost, sim_gpu

        spec = sim_gpu()
        with make_session(solver="adds", spec=spec, cost=sim_cost(spec)) as s:
            s.add_graph("fig1", tiny_graph)
            f = s.submit("fig1", 0)
            s.serve_pending()
            assert np.array_equal(f.result().dist, [0.0, 3.0, 1.0])

    def test_query_convenience_wrapper(self, line_graph):
        with make_session() as s:
            s.add_graph("line", line_graph)
            r = s.query("line", 0, targets=[3])
            assert np.array_equal(r.target_dist, [3.0])


class TestThreadedMode:
    def test_autostart_thread_serves_submissions(self, small_road):
        with Session(solver="dijkstra", window_s=0.002, autostart=True) as s:
            s.add_graph("road", small_road)
            futs = [s.submit("road", src) for src in (0, 1, 0, 2)]
            results = [f.result(timeout=30) for f in futs]
            for src, r in zip((0, 1, 0, 2), results):
                assert r.source == src and r.dist[src] == 0.0

    def test_close_drains_pending(self, small_road):
        s = Session(solver="dijkstra", window_s=0.5, autostart=True)
        s.add_graph("road", small_road)
        fut = s.submit("road", 0)
        s.close()  # does not abandon the admitted query
        assert fut.result(timeout=30).dist[0] == 0.0


class TestWorkerPool:
    def test_jobs_validation(self):
        with pytest.raises(EngineError, match="jobs"):
            make_session(jobs=0)

    def test_closed_session_rejects_submissions(self, small_road):
        s = make_session(jobs=2)
        s.add_graph("road", small_road)
        s.close()
        with pytest.raises(ServeError, match="closed"):
            s.submit("road", 0)
        s.close()  # idempotent: the pool is shut down once

    def test_dispatch_counter(self, small_road):
        with make_session() as s:
            s.add_graph("road", small_road)
            for src in (0, 1, 0, 2):
                s.query("road", src)
            assert s.dispatched == 3  # the repeat of source 0 hit the cache

    @staticmethod
    def _replay(jobs):
        """Answers and counters of one query/update mix: weight-only
        batches keep unaffected sources cached and stash the rest as
        warm starts, which the next round solves incrementally."""
        graph = grid_road(16, 12, seed=7)
        batches = update_stream(graph, batches=2, batch_size=30, seed=4,
                                p_insert=0.0, p_delete=0.0)
        answers = []
        with make_session(jobs=jobs) as s:
            s.add_graph("road", graph)
            for batch in [None, *batches]:
                if batch is not None:
                    s.apply_updates("road", batch)
                futs = [s.submit("road", src) for src in (0, 17, 90, 17, 191)]
                s.serve_pending()
                answers += [f.result(timeout=120).dist.tobytes() for f in futs]
            return answers, s.counters(), s.dispatched

    def test_pool_answers_bit_match_inline_across_updates(self):
        inline = self._replay(1)
        assert inline[1]["serve_incremental"] > 0  # the warm path ran
        assert self._replay(2) == inline

    def test_crashing_solver_through_the_pool(self, small_road, fault_solvers):
        with make_session(solver="eng-crash", jobs=2) as s:
            s.add_graph("road", small_road)
            f = s.submit("road", 0)
            s.serve_pending()
            with pytest.raises(ServeError, match="injected failure"):
                f.result(timeout=120)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the exiting solver is registered in this process only",
    )
    def test_dead_worker_is_a_serve_error(self, small_road):
        def solve(graph, source=0):
            if source == 0:
                os._exit(3)  # kills the worker, which breaks the pool
            return get_solver("dijkstra").fn(graph, source)

        register_solver("serve-exit")(solve)
        try:
            with make_session(solver="serve-exit", jobs=2) as s:
                s.add_graph("road", small_road)
                f = s.submit("road", 0)
                s.serve_pending()
                with pytest.raises(ServeError, match="worker failed"):
                    f.result(timeout=120)
                # the next plan runs on a fresh pool
                assert s.query("road", 5).dist[5] == 0.0
        finally:
            SOLVERS.pop("serve-exit", None)
