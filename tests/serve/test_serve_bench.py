"""serve-bench: trace determinism, payload schema, verification gate."""

from __future__ import annotations

import json

import pytest

from repro.errors import ServeError
from repro.serve import (
    SERVE_BENCH_SCHEMA_VERSION,
    run_serve_bench,
    synthesize_trace,
)


class TestTrace:
    def test_deterministic_per_seed(self):
        graphs = {"a": 100, "b": 50}
        t1 = synthesize_trace(graphs, 200, seed=3)
        t2 = synthesize_trace(graphs, 200, seed=3)
        assert t1 == t2
        assert t1 != synthesize_trace(graphs, 200, seed=4)

    def test_queries_are_in_range(self):
        graphs = {"a": 37}
        for gid, source, targets in synthesize_trace(graphs, 300, seed=0):
            assert gid == "a"
            assert 0 <= source < 37
            if targets is not None:
                assert all(0 <= t < 37 for t in targets)

    def test_hot_sources_dominate(self):
        trace = synthesize_trace({"a": 10_000}, 500, seed=1, hot_sources=4)
        counts: dict = {}
        for _, source, _ in trace:
            counts[source] = counts.get(source, 0) + 1
        top4 = sorted(counts.values(), reverse=True)[:4]
        assert sum(top4) > 0.6 * len(trace)

    def test_empty_graphs_rejected(self):
        with pytest.raises(ServeError):
            synthesize_trace({}, 10)


class TestPayload:
    @pytest.fixture(scope="class")
    def payload(self):
        return run_serve_bench(
            queries=250, scale=0.15, max_graphs=2, burst=16, seed=2,
            tag="unit",
        )

    def test_schema_versioned(self, payload):
        assert payload["schema_version"] == SERVE_BENCH_SCHEMA_VERSION
        assert payload["kind"] == "serve-bench"
        assert payload["tag"] == "unit"

    def test_required_result_fields(self, payload):
        res = payload["results"]
        assert res["served"] == 250
        for k in ("p50", "p90", "p99", "mean", "max"):
            assert res["latency_ms"][k] >= 0.0
        assert res["throughput_qps"] > 0
        assert res["batch_size_hist"]  # non-empty histogram
        # every query was served by exactly one batch
        assert sum(int(s) * n for s, n in res["batch_size_hist"].items()) == 250

    def test_cache_hit_rate_nonzero_on_skewed_trace(self, payload):
        assert payload["results"]["cache"]["lookup_hits"] > 0
        assert payload["results"]["counters"]["serve_cache_hits"] > 0

    def test_verification_passes_bit_exact(self, payload):
        assert payload["verify"]["enabled"]
        assert payload["verify"]["checked"] > 0
        assert payload["verify"]["mismatches"] == []

    def test_payload_is_json_serializable(self, payload):
        json.dumps(payload)

    def test_counters_balance(self, payload):
        c = payload["results"]["counters"]
        assert c["serve_admitted"] == 250
        assert c["serve_rejected"] == 0 and c["serve_timeouts"] == 0
        assert c["serve_batched"] + c["serve_cache_hits"] == 250


class TestOptions:
    def test_verify_can_be_skipped(self):
        payload = run_serve_bench(
            queries=40, scale=0.15, max_graphs=1, burst=8, verify=False
        )
        assert payload["verify"] == {"enabled": False, "checked": 0, "mismatches": []}

    def test_parameter_validation(self):
        with pytest.raises(ServeError):
            run_serve_bench(queries=0)
        with pytest.raises(ServeError):
            run_serve_bench(queries=10, burst=0)
        with pytest.raises(ServeError):
            run_serve_bench(queries=10, updates=-1)
        with pytest.raises(ServeError):
            run_serve_bench(queries=10, updates=1, update_size=0)


class TestUpdatesMode:
    @pytest.fixture(scope="class")
    def payload(self):
        return run_serve_bench(
            queries=120, scale=0.15, max_graphs=2, burst=16, seed=5,
            updates=2, update_size=5,
        )

    def test_static_payload_has_null_updates_block(self):
        payload = run_serve_bench(
            queries=40, scale=0.15, max_graphs=1, burst=8, verify=False
        )
        assert payload["updates"] is None
        assert payload["config"]["updates"] == 0

    def test_updates_block_reports_both_passes(self, payload):
        upd = payload["updates"]
        assert upd["batches"] == 4  # 2 per graph × 2 graphs
        assert upd["update_size"] == 5
        assert upd["incremental_wall_s"] > 0 and upd["full_wall_s"] > 0
        assert upd["speedup"] > 0
        assert upd["incremental_solves"] > 0  # warm path actually exercised

    def test_passes_agree_bit_exactly(self, payload):
        assert payload["updates"]["pass_mismatches"] == 0

    def test_per_generation_verification_passes(self, payload):
        assert payload["verify"]["enabled"]
        assert payload["verify"]["checked"] > 0
        assert payload["verify"]["mismatches"] == []
        # at least one served answer postdates an update
        assert payload["results"]["counters"]["serve_incremental"] > 0

    def test_updates_payload_is_json_serializable(self, payload):
        json.dumps(payload)

    def test_passes_do_not_share_graph_objects(self):
        # SuiteEntry.graph() memoizes its build; if both replay passes
        # were handed that shared object, pass 1's in-place weight
        # patches would leak into pass 2, whose re-application of the
        # same stream then rejects an already-applied decrease.  This
        # seed's streams open with weight-only batches, which is exactly
        # the triggering shape.
        payload = run_serve_bench(
            queries=40, scale=0.2, max_graphs=3, burst=16, seed=7,
            updates=2, update_size=6,
        )
        assert payload["updates"]["pass_mismatches"] == 0
        assert payload["verify"]["mismatches"] == []
