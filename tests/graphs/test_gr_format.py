"""Round-trip and error-handling tests for the GR / DIMACS formats."""

from __future__ import annotations

import io
import struct

import numpy as np
import pytest

from repro.errors import GraphFormatError, ReproError
from repro.graphs import grid_road, read_gr, rmat, write_gr
from repro.graphs.gr_format import read_dimacs, write_dimacs


def assert_same_graph(a, b):
    assert np.array_equal(a.row_offsets, b.row_offsets)
    assert np.array_equal(a.col_indices, b.col_indices)
    assert np.array_equal(a.weights, b.weights)


class TestGrRoundTrip:
    def test_int_roundtrip(self, tmp_path, small_road):
        p = tmp_path / "g.gr"
        write_gr(small_road, p)
        assert_same_graph(small_road, read_gr(p))

    def test_float_roundtrip(self, tmp_path, small_road):
        p = tmp_path / "g.gr"
        f = small_road.as_float()
        write_gr(f, p)
        g = read_gr(p, float_weights=True)
        assert g.weights.dtype == np.float32
        assert_same_graph(f, g)

    def test_odd_edge_count_padding(self, tmp_path, tiny_graph):
        assert tiny_graph.num_edges % 2 == 1
        p = tmp_path / "odd.gr"
        write_gr(tiny_graph, p)
        assert_same_graph(tiny_graph, read_gr(p))
        # header(32) + outIdx(3*8) + outs(3*4) + pad(4) + weights(3*4)
        assert p.stat().st_size == 32 + 24 + 12 + 4 + 12

    def test_even_edge_count_no_padding(self, tmp_path):
        from repro.graphs import from_edge_list

        g = from_edge_list(2, [(0, 1, 3), (1, 0, 4)])
        p = tmp_path / "even.gr"
        write_gr(g, p)
        assert p.stat().st_size == 32 + 16 + 8 + 8
        assert_same_graph(g, read_gr(p))

    def test_empty_graph_roundtrip(self, tmp_path):
        from repro.graphs import from_edge_list

        g = from_edge_list(4, [])
        p = tmp_path / "empty.gr"
        write_gr(g, p)
        g2 = read_gr(p)
        assert g2.num_vertices == 4
        assert g2.num_edges == 0

    def test_name_defaults_to_stem(self, tmp_path, small_road):
        p = tmp_path / "myroad.gr"
        write_gr(small_road, p)
        assert read_gr(p).name == "myroad"

    def test_rmat_roundtrip(self, tmp_path, small_rmat):
        p = tmp_path / "r.gr"
        write_gr(small_rmat, p)
        assert_same_graph(small_rmat, read_gr(p))

    def test_unweighted_roundtrip(self, tmp_path, small_road):
        p = tmp_path / "u.gr"
        write_gr(small_road, p, unweighted=True)
        # edge_data_size = 0 on disk, no weight payload
        version, edata, n, m = struct.unpack_from("<QQQQ", p.read_bytes(), 0)
        assert edata == 0
        pad = 4 if m % 2 == 1 else 0
        assert p.stat().st_size == 32 + 8 * n + 4 * m + pad
        g = read_gr(p)
        assert np.array_equal(g.row_offsets, small_road.row_offsets)
        assert np.array_equal(g.col_indices, small_road.col_indices)
        assert np.all(g.weights == 1)

    def test_unweighted_rejects_float_weights(self, tmp_path, small_road):
        with pytest.raises(GraphFormatError, match="unweighted"):
            write_gr(small_road, tmp_path / "u.gr",
                     unweighted=True, float_weights=True)


class TestGrErrors:
    def test_truncated_header(self, tmp_path):
        p = tmp_path / "bad.gr"
        p.write_bytes(b"\x01\x00")
        with pytest.raises(GraphFormatError, match="truncated"):
            read_gr(p)

    def test_wrong_version(self, tmp_path):
        p = tmp_path / "bad.gr"
        p.write_bytes(struct.pack("<QQQQ", 9, 4, 0, 0))
        with pytest.raises(GraphFormatError, match="version"):
            read_gr(p)

    def test_bad_edge_data_size(self, tmp_path):
        p = tmp_path / "bad.gr"
        p.write_bytes(struct.pack("<QQQQ", 1, 16, 0, 0))
        with pytest.raises(GraphFormatError, match="edge data size"):
            read_gr(p)

    def test_truncated_body(self, tmp_path):
        p = tmp_path / "bad.gr"
        p.write_bytes(struct.pack("<QQQQ", 1, 4, 100, 500))
        with pytest.raises(GraphFormatError, match="too short"):
            read_gr(p)

    def test_col_index_out_of_range(self, tmp_path):
        # 2 vertices, 2 edges; second edge targets vertex 7 (>= num_nodes)
        p = tmp_path / "bad.gr"
        body = struct.pack("<QQQQ", 1, 4, 2, 2)
        body += struct.pack("<QQ", 1, 2)  # valid out_idx ends
        body += struct.pack("<II", 1, 7)  # cols: 1 ok, 7 out of range
        body += struct.pack("<II", 1, 1)  # weights
        p.write_bytes(body)
        with pytest.raises(GraphFormatError, match=r"col_indices\[1\] = 7"):
            read_gr(p)

    def test_col_index_huge_not_wrapped(self, tmp_path):
        # a u32 that would go negative under a blind int32 cast must be
        # reported with its real value, not silently wrapped
        p = tmp_path / "bad.gr"
        body = struct.pack("<QQQQ", 1, 4, 2, 2)
        body += struct.pack("<QQ", 1, 2)
        body += struct.pack("<II", 0, 2**31 + 5)
        body += struct.pack("<II", 1, 1)
        p.write_bytes(body)
        with pytest.raises(GraphFormatError, match=str(2**31 + 5)):
            read_gr(p)

    def test_corrupt_out_idx(self, tmp_path):
        p = tmp_path / "bad.gr"
        body = struct.pack("<QQQQ", 1, 4, 2, 2)
        body += struct.pack("<QQ", 5, 2)  # decreasing / wrong total
        body += struct.pack("<II", 0, 1)
        body += struct.pack("<II", 1, 1)
        p.write_bytes(body)
        with pytest.raises(GraphFormatError, match="out_idx"):
            read_gr(p)

    def test_nan_float_weight_rejected(self, tmp_path):
        # 2 vertices, edges 0->1 (NaN) and 1->0 (1.0): a NaN weight
        # would make Dijkstra silently report vertex 1 unreachable
        p = tmp_path / "nan.gr"
        body = struct.pack("<QQQQ", 1, 4, 2, 2)
        body += struct.pack("<QQ", 1, 2)
        body += struct.pack("<II", 1, 0)
        body += struct.pack("<ff", float("nan"), 1.0)
        p.write_bytes(body)
        with pytest.raises(ReproError, match="NaN"):
            read_gr(p, float_weights=True)


    @staticmethod
    def _two_node_gr(path, weight_bytes):
        """A 2-node, 1-edge (0 -> 1) file with the given 4-byte weight."""
        body = struct.pack("<QQQQ", 1, 4, 2, 1)
        body += struct.pack("<QQ", 1, 1)
        body += struct.pack("<I", 1) + b"\0" * 4  # col + odd-count padding
        path.write_bytes(body + weight_bytes)
        return path

    def test_uint32_weight_above_int32_max_rejected(self, tmp_path):
        # read as int32 it would wrap to a negative weight and be
        # misreported as "negative edge weight"
        p = self._two_node_gr(tmp_path / "big.gr", struct.pack("<I", 3_000_000_000))
        with pytest.raises(
            GraphFormatError, match=r"weights\[0\] = 3000000000 exceeds"
        ):
            read_gr(p)

    def test_uint32_weight_at_int32_max_accepted(self, tmp_path):
        p = self._two_node_gr(tmp_path / "max.gr", struct.pack("<I", 2**31 - 1))
        assert read_gr(p).weights.tolist() == [2**31 - 1]

    @pytest.mark.parametrize("value", [-2.5, float("nan")])
    def test_bad_float_weight_names_edge_and_value(self, tmp_path, value):
        p = self._two_node_gr(tmp_path / "neg.gr", struct.pack("<f", value))
        with pytest.raises(
            GraphFormatError, match=rf"weights\[0\] = {value} is negative or NaN"
        ):
            read_gr(p, float_weights=True)

    def test_negative_zero_float_weight_accepted(self, tmp_path):
        p = self._two_node_gr(tmp_path / "zero.gr", struct.pack("<f", -0.0))
        assert read_gr(p, float_weights=True).weights.tolist() == [0.0]

class TestDimacs:
    def test_roundtrip(self, tmp_path, tiny_graph):
        p = tmp_path / "g.dimacs"
        write_dimacs(tiny_graph, p)
        g = read_dimacs(p)
        assert sorted(g.edges()) == sorted(tiny_graph.edges())

    def test_read_from_stream(self):
        text = "c comment\np sp 3 2\na 1 2 5\na 2 3 7\n"
        g = read_dimacs(io.StringIO(text))
        assert g.num_vertices == 3
        assert sorted(g.edges()) == [(0, 1, 5), (1, 2, 7)]

    def test_missing_problem_line(self):
        with pytest.raises(GraphFormatError, match="problem line"):
            read_dimacs(io.StringIO("a 1 2 5\n"))

    def test_unknown_record(self):
        with pytest.raises(GraphFormatError, match="unknown record"):
            read_dimacs(io.StringIO("p sp 2 1\nx 1 2\n"))

    def test_bad_arc_line(self):
        with pytest.raises(GraphFormatError, match="bad arc"):
            read_dimacs(io.StringIO("p sp 2 1\na 1 2\n"))

    def test_float_weights(self):
        text = "p sp 2 1\na 1 2 2.5\n"
        g = read_dimacs(io.StringIO(text), dtype="float32")
        assert g.weights[0] == pytest.approx(2.5)

    @pytest.mark.parametrize(
        "arc, why",
        [
            ("a 1 2 3.5", "'3.5' is not an integer"),
            ("a 1 2 3000000000", "'3000000000' exceeds 2147483647"),
            ("a 1 2 nan", "'nan' is not a finite non-negative number"),
            ("a 1 2 inf", "'inf' is not a finite non-negative number"),
            ("a 1 2 -4", "'-4' is not a finite non-negative number"),
            ("a 1 2 x", "weight 'x' is not a number"),
            ("a 1 y 2", "head 'y' is not an integer"),
            ("a 0 2 2", r"tail '0' is outside \[1, 2\]"),
            ("a 1 3 2", r"head '3' is outside \[1, 2\]"),
        ],
    )
    def test_bad_arc_names_line_and_value(self, arc, why):
        # a wrong weight must never load rounded, wrapped or misreported
        # as negative by the CSR builder
        with pytest.raises(GraphFormatError, match=f"line 3: .*{why}"):
            read_dimacs(io.StringIO(f"c two nodes\np sp 2 1\n{arc}\n"))

    def test_float_weight_bounds(self):
        with pytest.raises(GraphFormatError, match="line 2: weight '1e39' exceeds"):
            read_dimacs(io.StringIO("p sp 2 1\na 1 2 1e39\n"), dtype="float32")
        g = read_dimacs(io.StringIO("p sp 2 1\na 1 2 3.5\n"), dtype="float32")
        assert g.weights.tolist() == [3.5]

    def test_integral_weight_spellings_accepted(self):
        g = read_dimacs(io.StringIO("p sp 2 2\na 1 2 4.0\na 2 1 1e3\n"))
        assert sorted(g.edges()) == [(0, 1, 4), (1, 0, 1000)]

    @pytest.mark.parametrize(
        "problem, why",
        [
            ("p sp x 1", "node count 'x' is not an integer"),
            ("p sp 2 y", "arc count 'y' is not an integer"),
            ("p sp -1 0", "node count '-1' is outside"),
        ],
    )
    def test_bad_problem_line_names_value(self, problem, why):
        with pytest.raises(GraphFormatError, match=f"line 1: {why}"):
            read_dimacs(io.StringIO(f"{problem}\n"))

    def test_arc_count_mismatch(self):
        with pytest.raises(GraphFormatError, match="declares 2 arcs, found 1"):
            read_dimacs(io.StringIO("p sp 3 2\na 1 2 5\n"))
        with pytest.raises(GraphFormatError, match="declares 0 arcs, found 1"):
            read_dimacs(io.StringIO("p sp 3 0\na 1 2 5\n"))

    def test_arc_before_problem_line(self):
        with pytest.raises(GraphFormatError, match="line 1: arc before"):
            read_dimacs(io.StringIO("a 1 2 5\np sp 2 1\n"))

    def test_second_problem_line(self):
        with pytest.raises(GraphFormatError, match="line 2: second problem line"):
            read_dimacs(io.StringIO("p sp 2 0\np sp 2 0\n"))
