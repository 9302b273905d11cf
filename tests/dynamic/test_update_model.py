"""Model-oracle fuzz of ``apply_updates`` on small multigraphs.

The oracle is a plain edge list.  Within a batch, updates address the
first copy of an edge that the pre-batch list holds; a delete removes
that copy, and the edge then counts as absent for the rest of the batch
(parallel copies behind it included), so a later insert of it appends a
new edge.  An insert appends; the result is the live list stably sorted
by ``(src, dst)``.  Batches mix repeated keys, insert→delete,
delete→insert, wrong directions, bad vertices, weights the dtype cannot
hold and replays of an already-applied batch (a batch drawn for another
graph state).  After each accepted batch an ADDS solve on the result,
whose weights may have been patched in place, must equal Dijkstra on a
fresh copy: that fuzzes the index and weight paths the in-place patch
hands to the relax kernel.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import solve_dijkstra
from repro.core import solve_adds
from repro.dynamic import UPDATE_KINDS, EdgeUpdate, apply_updates
from repro.errors import DynamicError
from repro.graphs import CSRGraph, from_edge_list

#: Weights the dtype may not hold: fractions (not int32), a float32
#: rounding, 2**31 (over int32, fine as float32) and 1e39 (over float32).
_ODD_WEIGHTS = [0.5, 0.1, 2**31, 1e39]


def _coerce(w, is_int):
    """The stored weight, or None when the dtype cannot hold ``w``."""
    if is_int:
        ok = float(w).is_integer() and w < 2**31
        return float(w) if ok else None
    with np.errstate(over="ignore"):
        r = float(np.float32(w))
    return None if math.isinf(r) else r


def _model_apply(n, edges, batch, is_int):
    """``(live edges, net deltas)`` after ``batch``, or None if the
    batch is rejected.  ``edges`` is a list of ``(src, dst, w)``."""
    edges = [[s, d, w, True] for s, d, w in edges]
    addressed = {}  # (u, v) -> index into edges, None = absent
    before = {}
    for u in batch:
        if not (0 <= u.src < n and 0 <= u.dst < n):
            return None
        key = (u.src, u.dst)
        if key not in addressed:
            addressed[key] = next(
                (i for i, e in enumerate(edges) if (e[0], e[1]) == key), None
            )
            i = addressed[key]
            before[key] = edges[i][2] if i is not None else math.nan
        i = addressed[key]
        if u.kind == "insert":
            w = _coerce(u.weight, is_int)
            if i is not None or w is None:
                return None
            edges.append([u.src, u.dst, w, True])
            addressed[key] = len(edges) - 1
        elif i is None:
            return None
        elif u.kind == "delete":
            edges[i][3] = False
            addressed[key] = None
        else:
            w = _coerce(u.weight, is_int)
            if w is None:
                return None
            if u.kind == "increase" and not w > edges[i][2]:
                return None
            if u.kind == "decrease" and not w < edges[i][2]:
                return None
            edges[i][2] = w
    live = sorted(
        [(s, d, w) for s, d, w, alive in edges if alive],
        key=lambda e: (e[0], e[1]),
    )
    deltas = {}
    for key, old in before.items():
        i = addressed[key]
        new = edges[i][2] if i is not None else math.nan
        if not (math.isnan(old) and math.isnan(new)) and old != new:
            deltas[key] = (old, new)
    return live, deltas


def _csr_edges(g):
    return [(s, d, float(w)) for s, d, w in g.edges()]


def _same(a, b):
    return (math.isnan(a) and math.isnan(b)) or a == b


@st.composite
def _update(draw, n, current):
    """One update, mostly aimed at an edge of ``current`` (``(u, v)`` ->
    weight of its first copy) and mostly valid on its own."""
    if current and draw(st.integers(0, 3)):
        src, dst = draw(st.sampled_from(sorted(current)))
        # an insert of an existing edge is a duplicate: draw it rarely
        kind = draw(st.sampled_from(
            ["increase", "decrease", "delete", "increase", "decrease", "insert"]
        ))
        w = current[(src, dst)]
        if draw(st.integers(0, 9)) == 0:
            src, dst = dst, src  # wrong direction
    else:
        # mostly in range, sometimes -1 or n
        vertex = st.integers(0, 19).map(
            lambda i: -1 if i == 0 else n if i == 1 else i % n
        )
        src, dst = draw(vertex), draw(vertex)
        kind = draw(st.sampled_from(["insert", "insert", "insert", "delete"]))
        w = 4.0
    return _with_weight(draw, kind, src, dst, w)


def _with_weight(draw, kind, src, dst, current):
    """``kind`` on ``(src, dst)`` with a weight that moves ``current`` the
    named way, or now and then one of ``_ODD_WEIGHTS``."""
    if kind == "delete":
        return EdgeUpdate(kind, src, dst)
    if draw(st.integers(0, 9)) == 0:
        return EdgeUpdate(kind, src, dst, draw(st.sampled_from(_ODD_WEIGHTS)))
    if kind == "insert":
        return EdgeUpdate(kind, src, dst, float(draw(st.integers(0, 9))))
    step = draw(st.integers(1, 3))
    w = current + step if kind == "increase" else max(0.0, current - step)
    return EdgeUpdate(kind, src, dst, w)


#: The follow-up that undoes each kind: increase→decrease,
#: insert→delete, delete→insert.
_UNDO = {"increase": "decrease", "decrease": "increase",
         "insert": "delete", "delete": "insert"}


class TestApplyUpdatesAgainstModel:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_batches_match_edge_list_model(self, data):
        n = data.draw(st.integers(1, 5), label="n")
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        base = data.draw(st.lists(pair, min_size=1, max_size=8), label="edges")
        # parallel copies of drawn edges
        base += data.draw(st.lists(st.sampled_from(base), max_size=3))
        dtype = data.draw(st.sampled_from(["int32", "float32"]), label="dtype")
        weights = data.draw(
            st.lists(st.integers(0, 9), min_size=len(base), max_size=len(base))
        )
        g = from_edge_list(
            n, [(s, d, w) for (s, d), w in zip(base, weights)], dtype=dtype
        )
        is_int = dtype == "int32"
        previous = []
        for _ in range(data.draw(st.integers(1, 4), label="batches")):
            if previous and data.draw(st.integers(0, 4)) == 0:
                batch = previous  # replayed against a later graph state
            else:
                current = {}  # (u, v) -> weight of its first copy
                for src, dst, w in g.edges():
                    current.setdefault((src, dst), float(w))
                batch = data.draw(
                    st.lists(_update(n, current), min_size=1, max_size=4)
                )
                # repeat keys: follow-ups on edges the batch already
                # touched, mostly undoing the earlier update
                for _ in range(data.draw(st.integers(0, 2))):
                    u = data.draw(st.sampled_from(batch))
                    kind = _UNDO[u.kind] if data.draw(st.integers(0, 3)) else (
                        data.draw(st.sampled_from(UPDATE_KINDS))
                    )
                    w = u.weight if u.weight is not None else 4.0
                    batch.append(_with_weight(data.draw, kind, u.src, u.dst, w))
            expect = _model_apply(n, _csr_edges(g), batch, is_int)
            arrays = g.row_offsets.tobytes(), g.col_indices.tobytes()
            weights_before = g.weights.tobytes()
            if expect is None:
                with pytest.raises(DynamicError):
                    apply_updates(g, batch)
                assert g.weights.tobytes() == weights_before
                assert (g.row_offsets.tobytes(), g.col_indices.tobytes()) == arrays
                continue
            res = apply_updates(g, batch)
            live, deltas = expect
            topology = any(u.kind in ("insert", "delete") for u in batch)
            assert res.topology_changed == topology
            assert (res.graph is g) == (not topology)
            out = res.graph
            assert out.weights.dtype == np.dtype(dtype)
            counts = np.bincount(
                np.array([s for s, _, _ in live], dtype=np.int64), minlength=n
            )
            assert out.row_offsets.tolist() == [0] + np.cumsum(counts).tolist()
            assert out.col_indices.tolist() == [d for _, d, _ in live]
            assert out.weights.tolist() == [w for _, _, w in live]
            got = res.deltas
            assert [(int(s), int(d)) for s, d in zip(got.src, got.dst)] == sorted(deltas)
            for i, key in enumerate(sorted(deltas)):
                assert _same(float(got.old_w[i]), deltas[key][0])
                assert _same(float(got.new_w[i]), deltas[key][1])

            fresh = CSRGraph(
                out.row_offsets.copy(), out.col_indices.copy(), out.weights.copy()
            )
            assert (
                solve_adds(out, 0).dist.tobytes()
                == solve_dijkstra(fresh, 0).dist.tobytes()
            )
            g = out
            previous = batch
