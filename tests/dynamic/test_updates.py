"""The update model: EdgeUpdate/UpdateBatch validation, batch
application (in-place weight patch vs CSR rebuild), and EdgeDeltas."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dynamic import (
    EdgeDeltas,
    EdgeUpdate,
    UpdateBatch,
    apply_updates,
)
from repro.errors import DynamicError
from repro.graphs.csr import from_edge_list


def _line_graph():
    """0 -> 1 -> 2 -> 3, weights 1, 2, 3."""
    return from_edge_list(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3)])


class TestEdgeUpdateValidation:
    def test_unknown_kind(self):
        with pytest.raises(DynamicError):
            EdgeUpdate(kind="tweak", src=0, dst=1, weight=1.0)

    def test_weight_required_for_weight_kinds(self):
        for kind in ("increase", "decrease", "insert"):
            with pytest.raises(DynamicError):
                EdgeUpdate(kind=kind, src=0, dst=1)

    def test_delete_takes_no_weight(self):
        with pytest.raises(DynamicError):
            EdgeUpdate(kind="delete", src=0, dst=1, weight=1.0)

    def test_weight_must_be_finite_non_negative(self):
        for w in (float("nan"), float("inf"), -1.0):
            with pytest.raises(DynamicError):
                EdgeUpdate(kind="insert", src=0, dst=1, weight=w)

    @pytest.mark.parametrize(
        "src, dst, weight",
        [(1.5, 1, 3.0), (True, 1, 3.0), (0, 1, "7")],
        ids=["float-vertex", "bool-vertex", "string-weight"],
    )
    def test_non_integer_vertex_or_non_numeric_weight(self, src, dst, weight):
        """Rejected at construction, not later and untyped inside
        ``apply_updates``."""
        with pytest.raises(DynamicError):
            EdgeUpdate(kind="increase", src=src, dst=dst, weight=weight)

    def test_numpy_scalars_accepted(self):
        u = EdgeUpdate("insert", np.int64(0), np.int32(1), np.float32(2.0))
        assert (u.src, u.dst, u.weight) == (0, 1, 2.0)

    def test_out_of_range_vertex_rejected_at_apply(self):
        g = _line_graph()
        for src, dst in ((-1, 1), (0, 99)):
            with pytest.raises(DynamicError):
                apply_updates(
                    g,
                    UpdateBatch(
                        [EdgeUpdate(kind="increase", src=src, dst=dst, weight=9.0)]
                    ),
                )


class TestWeightOnlyBatch:
    def test_in_place_patch(self):
        g = _line_graph()
        res = apply_updates(
            g, UpdateBatch([EdgeUpdate(kind="increase", src=1, dst=2, weight=5.0)])
        )
        assert res.graph is g  # patched in place, no rebuild
        assert not res.topology_changed
        assert float(g.weights[1]) == 5.0

    def test_wrong_direction_rejected(self):
        g = _line_graph()
        with pytest.raises(DynamicError):
            apply_updates(
                g,
                UpdateBatch([EdgeUpdate(kind="increase", src=1, dst=2, weight=1.0)]),
            )

    def test_unknown_edge_rejected(self):
        g = _line_graph()
        with pytest.raises(DynamicError):
            apply_updates(
                g,
                UpdateBatch([EdgeUpdate(kind="decrease", src=0, dst=3, weight=0.5)]),
            )

    def test_invalid_batch_leaves_graph_untouched(self):
        g = _line_graph()
        before = g.weights.copy()
        batch = UpdateBatch(
            [
                EdgeUpdate(kind="increase", src=0, dst=1, weight=9.0),  # valid
                EdgeUpdate(kind="increase", src=1, dst=2, weight=1.0),  # invalid
            ]
        )
        with pytest.raises(DynamicError):
            apply_updates(g, batch)
        assert np.array_equal(g.weights, before)  # nothing half-patched

    def test_sequential_within_batch(self):
        # the second update sees the first one's new weight
        g = _line_graph()
        batch = UpdateBatch(
            [
                EdgeUpdate(kind="increase", src=0, dst=1, weight=10.0),
                EdgeUpdate(kind="decrease", src=0, dst=1, weight=4.0),
            ]
        )
        res = apply_updates(g, batch)
        assert float(g.weights[0]) == 4.0
        # net deltas record the original old weight and the final new one
        assert res.deltas.size == 1
        assert float(res.deltas.old_w[0]) == 1.0
        assert float(res.deltas.new_w[0]) == 4.0

    def test_float_weight_rounded_to_float32(self):
        """The patched weights and the recorded delta hold the same
        float32 value, so ADDS on the patched graph agrees with ADDS and
        Dijkstra on a fresh copy."""
        from repro.baselines import solve_dijkstra
        from repro.core.adds import solve_adds
        from repro.graphs import CSRGraph, grid_road

        g = grid_road(4, 4, seed=1).as_float()
        assert int(g.col_indices[0]) == 1
        res = apply_updates(g, [EdgeUpdate("decrease", 0, 1, 0.1)])
        w = float(np.float32(0.1))
        assert float(g.weights[0]) == w
        assert float(res.deltas.new_w[0]) == w
        fresh = CSRGraph(
            g.row_offsets.copy(), g.col_indices.copy(), g.weights.copy()
        )
        patched = solve_adds(g, 0).dist.tobytes()
        assert patched == solve_adds(fresh, 0).dist.tobytes()
        assert patched == solve_dijkstra(fresh, 0).dist.tobytes()

    @pytest.mark.parametrize(
        "as_float, weight", [(False, 2**31), (True, 1e39)],
        ids=["int32", "float32"],
    )
    def test_overflowing_weight_rejects_whole_batch(self, as_float, weight):
        g = _line_graph()
        g = g.as_float() if as_float else g
        before = g.weights.tobytes()
        batch = [
            EdgeUpdate(kind="increase", src=0, dst=1, weight=6.0),  # valid
            EdgeUpdate(kind="increase", src=1, dst=2, weight=weight),
        ]
        with pytest.raises(DynamicError, match="int32|float32"):
            apply_updates(g, batch)
        assert g.weights.tobytes() == before
        # a topology batch validates the same way
        with pytest.raises(DynamicError, match="int32|float32"):
            apply_updates(g, [EdgeUpdate("insert", 0, 3, weight)])

    def test_stats_cache_dropped_on_weight_change(self):
        g = _line_graph()
        before = g.max_weight()
        apply_updates(
            g, UpdateBatch([EdgeUpdate(kind="increase", src=2, dst=3, weight=50.0)])
        )
        assert g.max_weight() == 50.0 != before


class TestTopologyBatch:
    def test_insert(self):
        g = _line_graph()
        res = apply_updates(
            g, UpdateBatch([EdgeUpdate(kind="insert", src=0, dst=3, weight=7.0)])
        )
        assert res.topology_changed
        assert res.graph is not g
        assert res.graph.num_edges == 4
        assert np.isnan(res.deltas.old_w[0])  # inserted: no old weight
        assert float(res.deltas.new_w[0]) == 7.0

    def test_duplicate_insert_rejected(self):
        g = _line_graph()
        with pytest.raises(DynamicError):
            apply_updates(
                g,
                UpdateBatch([EdgeUpdate(kind="insert", src=0, dst=1, weight=1.0)]),
            )

    def test_delete(self):
        g = _line_graph()
        res = apply_updates(
            g, UpdateBatch([EdgeUpdate(kind="delete", src=1, dst=2)])
        )
        assert res.topology_changed
        assert res.graph.num_edges == 2
        assert np.isnan(res.deltas.new_w[0])  # deleted: no new weight

    def test_delete_unknown_edge_rejected(self):
        g = _line_graph()
        with pytest.raises(DynamicError):
            apply_updates(g, UpdateBatch([EdgeUpdate(kind="delete", src=3, dst=0)]))

    def test_insert_then_delete_is_net_noop(self):
        g = _line_graph()
        res = apply_updates(
            g,
            UpdateBatch(
                [
                    EdgeUpdate(kind="insert", src=0, dst=3, weight=7.0),
                    EdgeUpdate(kind="delete", src=0, dst=3),
                ]
            ),
        )
        assert res.topology_changed  # a rebuild happened...
        assert res.graph.num_edges == 3
        assert res.deltas.size == 0  # ...but the net deltas are empty

    def test_delete_then_reinsert_same_weight_is_net_noop(self):
        g = _line_graph()
        res = apply_updates(
            g,
            UpdateBatch(
                [
                    EdgeUpdate(kind="delete", src=1, dst=2),
                    EdgeUpdate(kind="insert", src=1, dst=2, weight=2.0),
                ]
            ),
        )
        assert res.deltas.size == 0


class TestEdgeDeltas:
    def test_merge_keeps_earliest_old_latest_new(self):
        d1 = EdgeDeltas.from_map({(0, 1): (1.0, 5.0)})
        d2 = EdgeDeltas.from_map({(0, 1): (5.0, 2.0), (1, 2): (2.0, 9.0)})
        merged = d1.merge(d2)
        assert merged.size == 2
        i = int(np.flatnonzero((merged.src == 0) & (merged.dst == 1))[0])
        assert float(merged.old_w[i]) == 1.0
        assert float(merged.new_w[i]) == 2.0

    def test_empty_batch_is_noop(self):
        g = _line_graph()
        res = apply_updates(g, UpdateBatch([]))
        assert res.graph is g
        assert res.deltas.size == 0
        assert res.n_updates == 0


class TestMergeUpdateStreamChains:
    """Property: folding per-batch deltas with ``merge`` (in either
    association) equals the direct diff of the endpoint graphs.  In
    particular an edge inserted in one batch and deleted in a later one
    resolves to absent — it never shows up carrying the stale inserted
    weight."""

    @staticmethod
    def _edge_map(g):
        ro, ci, w = g.row_offsets, g.col_indices, g.weights
        out = {}
        for u in range(ro.size - 1):
            for j in range(int(ro[u]), int(ro[u + 1])):
                out[(u, int(ci[j]))] = float(w[j])
        return out

    @staticmethod
    def _fold_left(deltas):
        acc = deltas[0]
        for d in deltas[1:]:
            acc = acc.merge(d)
        return acc

    @staticmethod
    def _fold_right(deltas):
        acc = deltas[-1]
        for d in reversed(deltas[:-1]):
            acc = d.merge(acc)
        return acc

    def test_insert_then_delete_annihilates(self):
        nan = float("nan")
        a = EdgeDeltas.from_map({(0, 1): (nan, 5.0)})
        b = EdgeDeltas.from_map({(0, 1): (5.0, nan)})
        assert a.merge(b).size == 0
        c = EdgeDeltas.from_map({(2, 3): (1.0, 4.0)})
        for m in (a.merge(b).merge(c), a.merge(b.merge(c))):
            keys = {(int(m.src[i]), int(m.dst[i])) for i in range(m.size)}
            assert keys == {(2, 3)}

    @pytest.mark.parametrize("seed", range(6))
    def test_chain_matches_endpoint_diff(self, seed):
        import math

        from repro.graphs.generators import grid_road, update_stream

        g0 = grid_road(4, 4, seed=seed)
        before = self._edge_map(g0)  # capture first: weight-only batches
        # patch the graph in place
        g = g0
        deltas = []
        for batch in update_stream(
            g0, batches=5, batch_size=10, seed=seed,
            p_insert=0.45, p_delete=0.45,
        ):
            res = apply_updates(g, batch)
            g = res.graph
            deltas.append(res.deltas)
        after = self._edge_map(g)

        nan = float("nan")
        expect = {}
        for k in set(before) | set(after):
            o = before.get(k, nan)
            n = after.get(k, nan)
            if (math.isnan(o) and math.isnan(n)) or o == n:
                continue
            expect[k] = (o, n)

        for merged in (self._fold_left(deltas), self._fold_right(deltas)):
            got = {
                (int(merged.src[i]), int(merged.dst[i])): (
                    float(merged.old_w[i]),
                    float(merged.new_w[i]),
                )
                for i in range(merged.size)
            }
            # same key set: no dropped changes, and no phantom entries
            # (an insert-then-delete edge must not reappear)
            assert set(got) == set(expect)
            for k, (o, n) in expect.items():
                go, gn = got[k]
                assert (math.isnan(o) and math.isnan(go)) or o == go
                assert (math.isnan(n) and math.isnan(gn)) or n == gn
