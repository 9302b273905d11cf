"""Round-trip and error-handling tests for the GR / DIMACS formats."""

from __future__ import annotations

import io
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError, ReproError
from repro.graphs import from_edge_list, grid_road, read_gr, rmat, write_gr
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


#: Values a corrupted word takes: small counts near the real ones, the
#: edges of the 32- and 64-bit ranges and arbitrary words.
_WORDS = st.one_of(
    st.integers(0, 16),
    st.sampled_from([2**31 - 1, 2**31, 2**32 - 1, 2**32, 2**63 - 1, 2**63,
                     2**64 - 1]),
    st.integers(0, 2**64 - 1),
)


@st.composite
def _gr_file(draw):
    """A valid small graph and how to write it: ``(graph, unweighted,
    float_weights)``."""
    n = draw(st.integers(0, 6))
    edges = []
    if n:
        edges = draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                      st.integers(0, 9)),
            max_size=9,
        ))
    graph = from_edge_list(n, edges)
    unweighted = draw(st.booleans())
    float_weights = draw(st.booleans())
    return graph, unweighted, float_weights


@pytest.fixture(scope="module")
def gr_dir(tmp_path_factory):
    """One directory for the fuzz files (hypothesis examples share it)."""
    return tmp_path_factory.mktemp("gr-fuzz")


def _gr_bytes(path, graph, unweighted, float_weights):
    write_gr(graph, path, unweighted=unweighted,
             float_weights=None if unweighted else float_weights)
    return path.read_bytes()


class TestGrStructureFuzz:
    """Truncated or corrupted structure either raises a ``ReproError`` or
    reads back as exactly the graph the bytes encode: writing the result
    again reproduces the file's bytes (its padding word aside)."""

    @staticmethod
    def check(tmp, data, float_weights):
        bad = tmp / "bad.gr"
        bad.write_bytes(bytes(data))
        try:
            g = read_gr(bad, float_weights=float_weights)
        except ReproError:
            return
        edata_size = struct.unpack_from("<Q", data, 8)[0]
        out = _gr_bytes(tmp / "again.gr", g, edata_size == 0, float_weights)
        seen = bytearray(data[: len(out)])
        if g.num_edges % 2:
            pad = 32 + 8 * g.num_vertices + 4 * g.num_edges
            seen[pad : pad + 4] = bytes(4)
        assert bytes(seen) == out

    @given(file=_gr_file(), cut=st.floats(0, 1, exclude_max=True))
    @settings(max_examples=300, deadline=None)
    def test_truncation_raises(self, gr_dir, file, cut):
        data = _gr_bytes(gr_dir / "g.gr", *file)
        bad = gr_dir / "bad.gr"
        bad.write_bytes(data[: int(cut * len(data))])
        with pytest.raises(GraphFormatError):
            read_gr(bad, float_weights=file[2])

    @given(file=_gr_file(), field=st.integers(0, 3), value=_WORDS)
    @settings(max_examples=300, deadline=None)
    def test_corrupt_header_word(self, gr_dir, file, field, value):
        data = bytearray(_gr_bytes(gr_dir / "g.gr", *file))
        struct.pack_into("<Q", data, 8 * field, value)
        self.check(gr_dir, data, file[2])

    @given(file=_gr_file(), which=st.integers(0, 2**16), value=_WORDS,
           in_ends=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_corrupt_ends_or_column_word(self, gr_dir, file, which,
                                         value, in_ends):
        graph = file[0]
        n, m = graph.num_vertices, graph.num_edges
        words = n if in_ends else m
        assume(words > 0)
        data = bytearray(_gr_bytes(gr_dir / "g.gr", *file))
        if in_ends:
            struct.pack_into("<Q", data, 32 + 8 * (which % n), value)
        else:
            struct.pack_into("<I", data, 32 + 8 * n + 4 * (which % m),
                             value % 2**32)
        self.check(gr_dir, data, file[2])


#: Tokens a corrupted DIMACS field takes: ids and counts around the real
#: ones, counts past the int32 vertex ids, fractions, non-finite and
#: non-numeric text.  No vertex count between those: a valid header of
#: 2**31 vertices would have the reader allocate 16 GiB of row offsets.
_TOKENS = st.one_of(
    st.integers(-2, 9).map(str),
    st.sampled_from([
        str(2**31 + 1), str(2**63), "1.5", "2.0", "1e0", "-0",
        "1e39", "3.4e38", "nan", "inf", "-inf", "0x1", "1_0", "", "a", "p",
        "c", "sp", "x",
    ]),
)


def _decode_dimacs(text: str, int_weights: bool):
    """The graph a DIMACS text encodes, as ``(n, sorted edges)``: the
    reader's own rules, without any of its validation."""
    n, edges = None, []
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0].startswith("c"):
            continue
        if parts[0] == "p":
            n = int(parts[2])
        else:
            w = float(parts[3])
            edges.append((int(parts[1]) - 1, int(parts[2]) - 1,
                          int(w) if int_weights else float(np.float32(w))))
    return n, sorted(edges)


class TestDimacsFuzz:
    """Malformed DIMACS text either raises a ``ReproError`` or reads as
    exactly the graph it encodes."""

    @staticmethod
    def check(text: str, float_weights: bool):
        dtype = "float32" if float_weights else "int32"
        try:
            g = read_dimacs(io.StringIO(text), dtype=dtype)
        except ReproError:
            return
        assert (g.num_vertices, sorted(g.edges())) == _decode_dimacs(
            text, not float_weights
        )

    @staticmethod
    def text(gr_dir, file) -> str:
        graph, _, float_weights = file
        if float_weights:
            graph = graph.as_float()
        path = gr_dir / "g.dimacs"
        write_dimacs(graph, path)
        return path.read_text()

    @given(file=_gr_file(), line=st.integers(0, 2**16),
           field=st.integers(0, 3), token=_TOKENS)
    @settings(max_examples=300, deadline=None)
    def test_corrupt_token(self, gr_dir, file, line, field, token):
        lines = self.text(gr_dir, file).splitlines()
        i = 1 + line % (len(lines) - 1)  # the problem line or an arc
        parts = lines[i].split()
        parts[field] = token
        lines[i] = " ".join(parts)
        self.check("\n".join(lines) + "\n", file[2])

    @given(file=_gr_file(), line=st.integers(0, 2**16),
           op=st.sampled_from(["drop", "repeat"]))
    @settings(max_examples=200, deadline=None)
    def test_dropped_or_repeated_line(self, gr_dir, file, line, op):
        lines = self.text(gr_dir, file).splitlines()
        i = line % len(lines)
        lines[i:i + 1] = [] if op == "drop" else [lines[i]] * 2
        self.check("\n".join(lines) + "\n", file[2])

    @given(file=_gr_file(), cut=st.floats(0, 1, exclude_max=True))
    @settings(max_examples=200, deadline=None)
    def test_truncation(self, gr_dir, file, cut):
        text = self.text(gr_dir, file)
        self.check(text[: int(cut * len(text))], file[2])
