"""Unit tests for CSR graph construction and views."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import solve_dijkstra
from repro.core import solve_adds
from repro.errors import GraphConstructionError, ReproError
from repro.graphs import CSRGraph, from_edge_list
from repro.graphs.csr import expand_frontier


class TestFromEdgeList:
    def test_basic_construction(self, tiny_graph):
        assert tiny_graph.num_vertices == 3
        assert tiny_graph.num_edges == 3
        assert tiny_graph.is_integer_weighted

    def test_row_offsets_are_prefix_sums(self, tiny_graph):
        assert tiny_graph.row_offsets.tolist() == [0, 2, 2, 3]

    def test_neighbors_sorted_by_destination(self):
        g = from_edge_list(4, [(0, 3, 1), (0, 1, 2), (0, 2, 3)])
        dsts, ws = g.neighbors(0)
        assert dsts.tolist() == [1, 2, 3]
        assert ws.tolist() == [2, 3, 1]

    def test_empty_graph(self):
        g = from_edge_list(5, [])
        assert g.num_vertices == 5
        assert g.num_edges == 0
        assert g.out_degree(2) == 0

    def test_zero_vertices(self):
        g = from_edge_list(0, [])
        assert g.num_vertices == 0

    def test_float_dtype(self):
        g = from_edge_list(2, [(0, 1, 2.5)], dtype="float32")
        assert not g.is_integer_weighted
        assert g.weights[0] == pytest.approx(2.5)

    def test_int_dtype_rounds(self):
        g = from_edge_list(2, [(0, 1, 2.6)], dtype="int32")
        assert g.weights[0] == 3

    def test_negative_weight_rejected(self):
        with pytest.raises(GraphConstructionError):
            from_edge_list(2, [(0, 1, -5)])

    def test_negative_weight_negated_like_paper(self):
        g = from_edge_list(2, [(0, 1, -5)], negate_negative_weights=True)
        assert g.weights[0] == 5

    def test_out_of_range_source(self):
        with pytest.raises(GraphConstructionError):
            from_edge_list(2, [(2, 0, 1)])

    def test_out_of_range_destination(self):
        with pytest.raises(GraphConstructionError):
            from_edge_list(2, [(0, 5, 1)])

    def test_dedupe_keeps_min_weight(self):
        g = from_edge_list(2, [(0, 1, 7), (0, 1, 3), (0, 1, 9)], dedupe=True)
        assert g.num_edges == 1
        assert g.weights[0] == 3

    def test_without_dedupe_parallel_edges_kept(self):
        g = from_edge_list(2, [(0, 1, 7), (0, 1, 3)])
        assert g.num_edges == 2

    def test_bad_dtype_rejected(self):
        with pytest.raises(GraphConstructionError):
            from_edge_list(2, [(0, 1, 1)], dtype="float64")

    def test_bad_shape_rejected(self):
        with pytest.raises(GraphConstructionError):
            from_edge_list(2, np.ones((3, 2)))


class TestCSRGraphValidation:
    def test_inconsistent_offsets_rejected(self):
        with pytest.raises(GraphConstructionError):
            CSRGraph(
                row_offsets=np.array([0, 5], dtype=np.int64),
                col_indices=np.array([0], dtype=np.int32),
                weights=np.array([1], dtype=np.int32),
            )

    def test_decreasing_offsets_rejected(self):
        with pytest.raises(GraphConstructionError):
            CSRGraph(
                row_offsets=np.array([0, 2, 1, 2], dtype=np.int64),
                col_indices=np.array([0, 1], dtype=np.int32),
                weights=np.array([1, 1], dtype=np.int32),
            )

    def test_col_index_out_of_range(self):
        with pytest.raises(GraphConstructionError):
            CSRGraph(
                row_offsets=np.array([0, 1], dtype=np.int64),
                col_indices=np.array([7], dtype=np.int32),
                weights=np.array([1], dtype=np.int32),
            )

    def test_weight_length_mismatch(self):
        with pytest.raises(GraphConstructionError):
            CSRGraph(
                row_offsets=np.array([0, 1], dtype=np.int64),
                col_indices=np.array([0], dtype=np.int32),
                weights=np.array([1, 2], dtype=np.int32),
            )

    @pytest.mark.parametrize(
        "row_dtype, col_dtype, w_dtype",
        [
            (np.float64, np.int32, np.int32),
            (np.uint64, np.int32, np.int32),
            (">i8", np.int32, np.int32),
            (np.int32, np.int32, np.int32),
            (np.int64, np.int16, np.int32),
            (np.int64, np.int64, np.int32),
            (np.int64, ">i4", np.int32),
            (np.int64, np.int32, ">f4"),
        ],
        ids=["f8-rows", "u8-rows", "big-endian-rows", "i4-rows",
             "i2-cols", "i8-cols", "big-endian-cols", "big-endian-weights"],
    )
    def test_dtypes_must_be_native(self, row_dtype, col_dtype, w_dtype):
        with pytest.raises(GraphConstructionError, match="native"):
            CSRGraph(
                row_offsets=np.array([0, 1, 1], dtype=row_dtype),
                col_indices=np.array([1], dtype=col_dtype),
                weights=np.array([1], dtype=w_dtype),
            )

    def test_nan_weight_rejected(self):
        with pytest.raises(GraphConstructionError, match="NaN"):
            CSRGraph(
                row_offsets=np.array([0, 1, 2], dtype=np.int64),
                col_indices=np.array([1, 0], dtype=np.int32),
                weights=np.array([np.nan, 1.0], dtype=np.float32),
            )


class TestProperties:
    def test_degrees(self, tiny_graph):
        assert tiny_graph.out_degree(0) == 2
        assert tiny_graph.out_degree(1) == 0
        assert tiny_graph.out_degree().tolist() == [2, 0, 1]

    def test_average_statistics(self, tiny_graph):
        assert tiny_graph.average_degree() == pytest.approx(1.0)
        assert tiny_graph.average_weight() == pytest.approx((10 + 1 + 2) / 3)
        assert tiny_graph.max_weight() == 10

    def test_edges_iterator(self, tiny_graph):
        assert sorted(tiny_graph.edges()) == [(0, 1, 10), (0, 2, 1), (2, 1, 2)]

    def test_prepare_returns_self(self, tiny_graph):
        # nothing is built ahead of a solve; load-time callers chain it
        assert tiny_graph.prepare() is tiny_graph


class TestTransforms:
    def test_as_float_preserves_topology(self, tiny_graph):
        f = tiny_graph.as_float()
        assert not f.is_integer_weighted
        assert np.array_equal(f.col_indices, tiny_graph.col_indices)
        assert f.weights.tolist() == [10.0, 1.0, 2.0]

    def test_as_float_idempotent(self, tiny_graph):
        f = tiny_graph.as_float()
        assert f.as_float() is f

    def test_with_weights(self, tiny_graph):
        w = np.array([5, 5, 5], dtype=np.int32)
        g = tiny_graph.with_weights(w)
        assert g.weights.tolist() == [5, 5, 5]
        assert np.array_equal(g.col_indices, tiny_graph.col_indices)


class TestExpandFrontier:
    def test_empty_frontier(self, tiny_graph):
        src, dst, w = expand_frontier(tiny_graph, np.array([], dtype=np.int64))
        assert src.size == dst.size == w.size == 0

    def test_single_vertex(self, tiny_graph):
        src, dst, w = expand_frontier(tiny_graph, np.array([0]))
        assert src.tolist() == [0, 0]
        assert dst.tolist() == [1, 2]
        assert w.tolist() == [10, 1]

    def test_vertex_without_edges(self, tiny_graph):
        src, dst, w = expand_frontier(tiny_graph, np.array([1]))
        assert src.size == 0

    def test_multi_vertex_matches_manual(self, small_road):
        frontier = np.array([0, 5, 17, 100])
        src, dst, w = expand_frontier(small_road, frontier)
        exp_src, exp_dst, exp_w = [], [], []
        for v in frontier.tolist():
            d, ww = small_road.neighbors(v)
            exp_src += [v] * d.size
            exp_dst += d.tolist()
            exp_w += ww.tolist()
        assert src.tolist() == exp_src
        assert dst.tolist() == exp_dst
        assert w.tolist() == exp_w

    def test_duplicate_frontier_vertices_expand_twice(self, tiny_graph):
        src, dst, _ = expand_frontier(tiny_graph, np.array([2, 2]))
        assert src.tolist() == [2, 2]
        assert dst.tolist() == [1, 1]


#: Vertex ids and weights a malformed edge list holds: small values near
#: the range, fractions, non-finite values and the int32/float32 edges.
#: Vertex counts stay small or far past int32 ids, since a valid count
#: of 2**31 would allocate 16 GiB of row offsets.
_IDS = st.one_of(
    st.integers(-2, 8),
    st.sampled_from([0.5, 1.5, math.nan, math.inf, -math.inf, 2.0**31, 2.0**63]),
)
_WEIGHTS = st.one_of(
    st.integers(-3, 9),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([2**31 - 1, 2**31, 2.5, -0.4, -0.0, 3.4e38, 3.5e38, 1e-46]),
)


def _encoded(n, edges, int_weights, negate, dedupe):
    """The sorted edges of the graph ``from_edge_list`` must build, or
    None when the input has no exact graph of that dtype."""
    if not 0 <= n <= 2**31:
        return None
    kept = {}
    for k, (s, d, w) in enumerate(edges):
        if not all(0 <= x < n and float(x).is_integer() for x in (s, d)):
            return None
        w = abs(w) if negate else w
        if math.isnan(w):
            return None
        key = (int(s), int(d)) if dedupe else k
        if key not in kept or w < kept[key][2]:
            kept[key] = (int(s), int(d), w)
    out = []
    for s, d, w in kept.values():
        if int_weights:
            w = float(np.rint(w))
            if abs(w) > 2**31 - 1:
                return None
            w = int(w)
        else:
            with np.errstate(over="ignore"):
                w32 = float(np.float32(w))
            if math.isinf(w32) and not math.isinf(w):
                return None
            w = w32
        if w < 0:
            return None
        out.append((s, d, w))
    return sorted(out)


class TestConstructorFuzz:
    """Malformed constructor input either raises a ``ReproError`` or
    builds exactly the graph it encodes."""

    @given(n=st.one_of(st.integers(-1, 6), st.sampled_from([2**31 + 1, 2**40])),
           edges=st.lists(st.tuples(_IDS, _IDS, _WEIGHTS), max_size=8),
           int_weights=st.booleans(), negate=st.booleans(), dedupe=st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_from_edge_list(self, n, edges, int_weights, negate, dedupe):
        want = _encoded(n, edges, int_weights, negate, dedupe)
        try:
            g = from_edge_list(n, edges, dtype="int32" if int_weights else "float32",
                               negate_negative_weights=negate, dedupe=dedupe)
        except ReproError:
            assert want is None
            return
        assert want is not None
        assert g.num_vertices == n
        assert sorted(g.edges()) == want

    @given(n=st.integers(1, 6), data=st.data(),
           array=st.sampled_from(["row_offsets", "col_indices", "weights"]),
           value=st.one_of(st.integers(-2, 9), st.sampled_from(
               [2**31 - 1, -2**31, math.nan, math.inf, -0.0, 2.5])),
           dtype=st.sampled_from([None, "<i8", ">i8", "<i4", "<u8", "<f4", ">f4"]),
           float_weights=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_corrupt_csr_array(self, n, data, array, value, dtype, float_weights):
        edges = data.draw(st.lists(st.tuples(
            st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 9)
        ), max_size=9))
        valid = from_edge_list(n, edges, dtype="float32" if float_weights else "int32")
        arrays = {
            "row_offsets": valid.row_offsets.copy(),
            "col_indices": valid.col_indices.copy(),
            "weights": valid.weights.copy(),
        }
        arr = arrays[array]
        if arr.size:
            i = data.draw(st.integers(0, arr.size - 1))
            with np.errstate(invalid="ignore"):
                arr[i] = np.float64(value).astype(arr.dtype)
        if dtype is not None:
            with np.errstate(invalid="ignore", over="ignore"):
                arrays[array] = arr.astype(dtype)
        try:
            g = CSRGraph(**arrays)
        except ReproError:
            return
        ro, col, w = arrays["row_offsets"], arrays["col_indices"], arrays["weights"]
        n, m = ro.size - 1, col.size
        assert g.row_offsets is ro and g.col_indices is col and g.weights is w
        assert ro.dtype == np.int64 and col.dtype == np.int32
        assert w.dtype in (np.int32, np.float32)
        assert ro[0] == 0 and ro[-1] == m == w.size
        assert np.all(np.diff(ro) >= 0)
        assert np.all((col >= 0) & (col < n))
        assert not np.any(np.isnan(w)) and not np.any(w < 0)
        # everything admitted solves, through the relax kernel too
        assert np.array_equal(solve_adds(g, 0).dist, solve_dijkstra(g, 0).dist)
