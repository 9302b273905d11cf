"""DIMACS challenge-9 / Galois binary ``.gr`` graph format.

The paper's artifact ships its 226 inputs as binary GR files ("This format
is used by Galois as well as ADDS", Appendix A.3).  The binary layout is
the Galois v1 CSR-on-disk format:

====== ======================= =============================================
offset field                   meaning
====== ======================= =============================================
0      uint64 version          must be 1
8      uint64 edge_data_size   bytes per edge weight (4, or 0 if unweighted)
16     uint64 num_nodes
24     uint64 num_edges
32     uint64 out_idx[n]       *end* offset of each vertex's edge range
..     uint32 outs[m]          destination vertex ids
..     uint32 padding          present iff ``m`` is odd (8-byte alignment)
..     edge_data[m]            uint32 or float32 weights (absent if size 0)
====== ======================= =============================================

We also support the text DIMACS ``.dimacs`` format (``p sp n m`` header and
1-indexed ``a u v w`` arc lines) for small hand-written inputs.
"""

from __future__ import annotations

import io
import math
import struct
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.errors import GraphFormatError
from repro.graphs.csr import CSRGraph, from_edge_list

__all__ = ["read_gr", "write_gr", "read_dimacs", "write_dimacs"]

_HEADER = struct.Struct("<QQQQ")
_VERSION = 1


def write_gr(
    graph: CSRGraph,
    path: Union[str, Path],
    *,
    float_weights: Optional[bool] = None,
    unweighted: bool = False,
) -> None:
    """Serialize ``graph`` to a Galois v1 binary ``.gr`` file.

    ``float_weights`` overrides the on-disk weight type; by default it
    follows the graph's weight dtype (int32 → uint32 file, float32 → float
    file, matching the artifact's ``sssp-int`` / ``sssp-float`` pairing).

    ``unweighted`` writes ``edge_data_size = 0`` and no weight payload —
    the form :func:`read_gr` reads back as all-ones weights.  The two
    flags conflict: an unweighted file has no weight type to pick.
    """
    if unweighted:
        if float_weights is not None:
            raise GraphFormatError(
                "write_gr: unweighted=True writes no weight payload; "
                "float_weights must be left unset"
            )
    elif float_weights is None:
        float_weights = not graph.is_integer_weighted
    n, m = graph.num_vertices, graph.num_edges
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_VERSION, 0 if unweighted else 4, n, m))
        # Galois stores *end* offsets, i.e. row_offsets[1:].
        fh.write(graph.row_offsets[1:].astype("<u8").tobytes())
        fh.write(graph.col_indices.astype("<u4").tobytes())
        if m % 2 == 1:
            fh.write(b"\x00\x00\x00\x00")
        if unweighted:
            return
        if float_weights:
            fh.write(graph.weights.astype("<f4").tobytes())
        else:
            fh.write(graph.weights.astype("<u4").tobytes())


def read_gr(
    path: Union[str, Path], *, float_weights: bool = False, name: str = None
) -> CSRGraph:
    """Parse a Galois v1 binary ``.gr`` file into a :class:`CSRGraph`.

    ``float_weights`` selects how the 4-byte edge payload is interpreted —
    the file itself does not distinguish (the artifact keeps int and float
    graphs in separate directories for the same reason).
    """
    path = Path(path)
    data = path.read_bytes()
    if len(data) < _HEADER.size:
        raise GraphFormatError(f"{path}: truncated header")
    version, edata_size, n, m = _HEADER.unpack_from(data, 0)
    if version != _VERSION:
        raise GraphFormatError(f"{path}: unsupported GR version {version}")
    if edata_size not in (0, 4):
        raise GraphFormatError(f"{path}: unsupported edge data size {edata_size}")
    off = _HEADER.size
    need = off + 8 * n + 4 * m
    if m % 2 == 1:
        need += 4
    if edata_size == 4:
        need += 4 * m
    if len(data) < need:
        raise GraphFormatError(
            f"{path}: file too short ({len(data)} bytes, need {need})"
        )
    ends = np.frombuffer(data, dtype="<u8", count=n, offset=off).astype(np.int64)
    off += 8 * n
    raw_cols = np.frombuffer(data, dtype="<u4", count=m, offset=off)
    oob = raw_cols >= n
    if np.any(oob):
        j = int(np.argmax(oob))
        raise GraphFormatError(
            f"{path}: col_indices[{j}] = {int(raw_cols[j])} out of range "
            f"for {n} nodes"
        )
    cols = raw_cols.astype(np.int32)
    off += 4 * m
    if m % 2 == 1:
        off += 4
    if edata_size == 4:
        # Check the raw payload: after the cast a uint32 above int32 max
        # would wrap negative and be misreported downstream.
        raw = np.frombuffer(
            data, dtype="<f4" if float_weights else "<u4", count=m, offset=off
        )
        int_max = np.iinfo(np.int32).max
        bad = ~(raw >= 0) if float_weights else raw > int_max
        if np.any(bad):
            j = int(np.argmax(bad))
            why = "is negative or NaN" if float_weights else f"exceeds {int_max}"
            raise GraphFormatError(f"{path}: weights[{j}] = {raw[j].item()} {why}")
        weights = raw.astype(np.float32 if float_weights else np.int32)
    else:
        weights = np.ones(m, dtype=np.float32 if float_weights else np.int32)
    ro = np.zeros(n + 1, dtype=np.int64)
    ro[1:] = ends
    if n and (ends[-1] != m or np.any(np.diff(ro) < 0)):
        raise GraphFormatError(f"{path}: corrupt out_idx array")
    return CSRGraph(
        row_offsets=ro,
        col_indices=cols,
        weights=weights,
        name=name or path.stem,
    )


def write_dimacs(graph: CSRGraph, path: Union[str, Path]) -> None:
    """Write the text DIMACS shortest-path format (1-indexed arcs)."""
    with open(path, "w") as fh:
        fh.write("c generated by repro\n")
        fh.write(f"p sp {graph.num_vertices} {graph.num_edges}\n")
        for u, v, w in graph.edges():
            if graph.is_integer_weighted:
                fh.write(f"a {u + 1} {v + 1} {int(w)}\n")
            else:
                fh.write(f"a {u + 1} {v + 1} {w!r}\n")


def read_dimacs(
    source: Union[str, Path, io.TextIOBase], *, dtype: str = "int32", name: str = None
) -> CSRGraph:
    """Parse a text DIMACS shortest-path file.

    Every malformed record raises :class:`GraphFormatError` naming its
    line and value: a count or vertex id that is not an integer or out of
    range, and a weight that is not a finite non-negative number or that
    the dtype cannot hold (for ``int32``, a fraction or a value above
    int32 max, which would otherwise load rounded or wrapped).  An arc
    count that differs from the problem line's is an error too, and so
    is a node count too large for this host to allocate.
    """
    if isinstance(source, (str, Path)):
        fh = open(source, "r")
        close = True
        label = name or Path(source).stem
    else:
        fh = source
        close = False
        label = name or "dimacs"
    int_weights = np.dtype(dtype) == np.dtype(np.int32)
    w_max = np.iinfo(np.int32).max if int_weights else float(np.finfo(np.float32).max)
    try:
        n = m = None
        edges = []
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            if parts[0] == "p":
                if len(parts) != 4 or parts[1] != "sp":
                    raise GraphFormatError(f"line {lineno}: bad problem line")
                if n is not None:
                    raise GraphFormatError(f"line {lineno}: second problem line")
                n = _dimacs_int(parts[2], lineno, "node count", 0)
                m = _dimacs_int(parts[3], lineno, "arc count", 0)
                p_line = lineno
            elif parts[0] == "a":
                if len(parts) != 4:
                    raise GraphFormatError(f"line {lineno}: bad arc line")
                if n is None:
                    raise GraphFormatError(
                        f"line {lineno}: arc before the 'p sp' problem line"
                    )
                u = _dimacs_int(parts[1], lineno, "tail", 1, n)
                v = _dimacs_int(parts[2], lineno, "head", 1, n)
                w = _dimacs_weight(parts[3], lineno, int_weights, w_max)
                edges.append((u - 1, v - 1, w))
            else:
                raise GraphFormatError(f"line {lineno}: unknown record {parts[0]!r}")
        if n is None:
            raise GraphFormatError("missing 'p sp' problem line")
        if len(edges) != m:
            raise GraphFormatError(
                f"problem line declares {m} arcs, found {len(edges)}"
            )
        try:
            return from_edge_list(n, edges, dtype=dtype, name=label)
        except MemoryError:
            raise GraphFormatError(
                f"line {p_line}: node count {n} is too large to allocate"
            ) from None
    finally:
        if close:
            fh.close()


def _dimacs_int(
    tok: str, lineno: int, what: str, lo: int, hi: Optional[int] = None
) -> int:
    """``tok`` as an integer in ``[lo, hi]`` (no upper bound if ``hi`` is
    None), or a :class:`GraphFormatError` naming the line and value."""
    try:
        value = int(tok)
    except ValueError:
        raise GraphFormatError(
            f"line {lineno}: {what} {tok!r} is not an integer"
        ) from None
    if value < lo or (hi is not None and value > hi):
        span = f"[{lo}, {hi}]" if hi is not None else f">= {lo}"
        raise GraphFormatError(f"line {lineno}: {what} {tok!r} is outside {span}")
    return value


def _dimacs_weight(tok: str, lineno: int, int_weights: bool, w_max) -> float:
    """``tok`` as an edge weight the graph's dtype holds exactly."""
    try:
        w = float(tok)
    except ValueError:
        raise GraphFormatError(
            f"line {lineno}: weight {tok!r} is not a number"
        ) from None
    if not 0 <= w < math.inf:
        raise GraphFormatError(
            f"line {lineno}: weight {tok!r} is not a finite non-negative number"
        )
    if int_weights and not w.is_integer():
        raise GraphFormatError(
            f"line {lineno}: weight {tok!r} is not an integer (int32 graph)"
        )
    if w > w_max:
        raise GraphFormatError(f"line {lineno}: weight {tok!r} exceeds {w_max}")
    return w
