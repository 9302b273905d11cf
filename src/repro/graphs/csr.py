"""Compressed-sparse-row graph storage.

All SSSP solvers in this repository consume :class:`CSRGraph`.  The layout
mirrors what the GPU implementations in the paper use: a ``row_offsets``
array of length ``n + 1``, a ``col_indices`` array of length ``m`` and a
parallel ``weights`` array.  Row offsets are native ``int64``, column
indices native ``int32`` (the artifact's GR format is 32-bit) and weights
either ``int32`` or ``float32`` — matching the paper's ``*_int`` /
``*_float`` build pair.

Weights must be non-negative; like the paper (§6.1.1) we convert negative
weights to positive magnitudes at construction time when asked to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GraphConstructionError

__all__ = [
    "CSRGraph", "from_edge_list", "expand_frontier", "gather_edges",
]


@dataclass(frozen=True)
class CSRGraph:
    """A directed graph with non-negative edge weights in CSR form.

    Attributes
    ----------
    row_offsets:
        ``int64`` array of length ``n + 1``; out-edges of vertex ``v`` are
        the half-open slice ``col_indices[row_offsets[v]:row_offsets[v+1]]``.
        (int64 so edge counts above 2**31 remain representable, although
        generated inputs stay far below that.)
    col_indices:
        ``int32`` array of length ``m`` of destination vertex ids.
    weights:
        length-``m`` array of edge weights; dtype ``int32`` or ``float32``.
    name:
        Optional label used by the suite, benches and reports.
    """

    row_offsets: np.ndarray
    col_indices: np.ndarray
    weights: np.ndarray
    name: str = "graph"
    _stats_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        ro, ci, w = self.row_offsets, self.col_indices, self.weights
        if ro.ndim != 1 or ci.ndim != 1 or w.ndim != 1:
            raise GraphConstructionError("CSR arrays must be one-dimensional")
        # native int64/int32 exactly: solvers index these through
        # memoryviews, which cannot read non-native byte orders
        if ro.dtype != np.dtype(np.int64):
            raise GraphConstructionError(
                f"row_offsets must be native int64, got {ro.dtype.str}"
            )
        if ci.dtype != np.dtype(np.int32):
            raise GraphConstructionError(
                f"col_indices must be native int32, got {ci.dtype.str}"
            )
        if w.dtype not in (np.dtype(np.int32), np.dtype(np.float32)):
            raise GraphConstructionError(
                f"weights must be native int32 or float32, got {w.dtype.str}"
            )
        if ro.size == 0:
            raise GraphConstructionError("row_offsets must have length n + 1 >= 1")
        if ci.size != w.size:
            raise GraphConstructionError(
                f"col_indices ({ci.size}) and weights ({w.size}) differ in length"
            )
        if int(ro[0]) != 0 or int(ro[-1]) != ci.size:
            raise GraphConstructionError(
                "row_offsets must start at 0 and end at the edge count"
            )
        if ro.size > 1 and np.any(np.diff(ro) < 0):
            raise GraphConstructionError("row_offsets must be non-decreasing")
        if ci.size and (int(ci.min()) < 0 or int(ci.max()) >= self.num_vertices):
            raise GraphConstructionError("col_indices out of range")
        if w.dtype.kind == "f" and np.isnan(w).any():
            raise GraphConstructionError("NaN edge weight")
        if w.size and float(w.min()) < 0:
            raise GraphConstructionError(
                "negative edge weight; pass negate_negative_weights=True to the builder"
            )

    # -- basic properties ---------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self.row_offsets.size - 1

    @property
    def num_edges(self) -> int:
        """Number of directed edges ``m``."""
        return self.col_indices.size

    @property
    def is_integer_weighted(self) -> bool:
        """True for the ``*_int`` flavour, False for ``*_float``."""
        return self.weights.dtype == np.dtype(np.int32)

    # -- views --------------------------------------------------------------

    def out_degree(self, v: Optional[int] = None):
        """Out-degree of ``v``, or the full int64 degree vector if ``v`` is None."""
        if v is None:
            return np.diff(self.row_offsets)
        return int(self.row_offsets[v + 1] - self.row_offsets[v])

    def neighbors(self, v: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(destinations, weights)`` views for vertex ``v`` (no copies)."""
        lo, hi = int(self.row_offsets[v]), int(self.row_offsets[v + 1])
        return self.col_indices[lo:hi], self.weights[lo:hi]

    def edges(self) -> Iterable[Tuple[int, int, float]]:
        """Iterate ``(src, dst, weight)`` triples (test/debug helper)."""
        for v in range(self.num_vertices):
            dsts, ws = self.neighbors(v)
            for d, w in zip(dsts.tolist(), ws.tolist()):
                yield v, d, w

    # -- statistics used by the Delta heuristic ------------------------------

    def average_weight(self) -> float:
        """Mean edge weight ``W`` (the paper's profile-kernel statistic)."""
        if "avg_weight" not in self._stats_cache:
            self._stats_cache["avg_weight"] = (
                float(self.weights.mean()) if self.num_edges else 0.0
            )
        return self._stats_cache["avg_weight"]

    def average_degree(self) -> float:
        """Mean out-degree ``D``."""
        n = self.num_vertices
        return self.num_edges / n if n else 0.0

    def max_weight(self) -> float:
        if "max_weight" not in self._stats_cache:
            self._stats_cache["max_weight"] = (
                float(self.weights.max()) if self.num_edges else 0.0
            )
        return self._stats_cache["max_weight"]

    def prepare(self) -> "CSRGraph":
        """Returns ``self``: solvers read the graph's own arrays and need
        nothing built ahead of a solve.  Kept so callers that prepare a
        graph at load time keep working."""
        return self

    # -- transforms -----------------------------------------------------------

    def reversed(self) -> "CSRGraph":
        """The transpose graph (used by reachability checks on directed inputs)."""
        n, m = self.num_vertices, self.num_edges
        src = np.repeat(
            np.arange(n, dtype=np.int32), np.diff(self.row_offsets).astype(np.int64)
        )
        order = np.argsort(self.col_indices, kind="stable")
        new_src = self.col_indices[order]
        counts = np.bincount(new_src, minlength=n).astype(np.int64)
        ro = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=ro[1:])
        return CSRGraph(
            row_offsets=ro,
            col_indices=src[order].astype(np.int32),
            weights=self.weights[order].copy(),
            name=f"{self.name}^T",
        )

    def with_weights(self, weights: np.ndarray, name: Optional[str] = None) -> "CSRGraph":
        """Same topology with a different weight vector."""
        return CSRGraph(
            row_offsets=self.row_offsets,
            col_indices=self.col_indices,
            weights=np.ascontiguousarray(weights),
            name=name or self.name,
        )

    def as_float(self) -> "CSRGraph":
        """The float32-weighted twin of an int graph (artifact's ``*_float``)."""
        if not self.is_integer_weighted:
            return self
        return self.with_weights(
            self.weights.astype(np.float32), name=f"{self.name}-float"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(name={self.name!r}, n={self.num_vertices}, "
            f"m={self.num_edges}, dtype={self.weights.dtype})"
        )


def from_edge_list(
    num_vertices: int,
    edges: Sequence[Tuple[int, int, float]] | np.ndarray,
    *,
    dtype: str = "int32",
    name: str = "graph",
    negate_negative_weights: bool = False,
    dedupe: bool = False,
) -> CSRGraph:
    """Build a :class:`CSRGraph` from ``(src, dst, weight)`` triples.

    Parameters
    ----------
    num_vertices:
        Vertex count; vertex ids must lie in ``[0, num_vertices)``.
    edges:
        Sequence of triples or an ``(m, 3)`` array.
    dtype:
        ``"int32"`` (weights rounded to the nearest integer) or
        ``"float32"`` weight storage.  A weight the dtype cannot hold
        raises :class:`~repro.errors.GraphConstructionError`.
    negate_negative_weights:
        Apply the paper's §6.1.1 rule: convert negative weights to their
        absolute value instead of rejecting them.
    dedupe:
        Keep only the minimum-weight copy of each parallel edge.
    """
    if not 0 <= num_vertices <= 2**31:
        raise GraphConstructionError(
            "num_vertices must be non-negative and fit int32 vertex ids"
        )
    arr = np.asarray(edges, dtype=np.float64)
    if arr.size == 0:
        arr = arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise GraphConstructionError("edges must be (m, 3) of (src, dst, weight)")
    with np.errstate(invalid="ignore"):  # non-finite ids: rejected below
        src = arr[:, 0].astype(np.int64)
        dst = arr[:, 1].astype(np.int64)
    w = arr[:, 2]
    if arr.shape[0]:
        for ids, given, what in (
            (src, arr[:, 0], "source"), (dst, arr[:, 1], "destination"),
        ):
            # a fractional or non-finite id does not survive the cast
            if np.any(ids != given) or ids.min() < 0 or ids.max() >= num_vertices:
                raise GraphConstructionError(
                    f"edge {what} out of range or not an integer vertex id"
                )
    if negate_negative_weights:
        w = np.abs(w)
    if np.isnan(w).any():
        raise GraphConstructionError("NaN edge weight")
    if dedupe:
        key = src * num_vertices + dst
        order = np.lexsort((w, key))
        key_s = key[order]
        first = np.ones(key_s.size, dtype=bool)
        first[1:] = key_s[1:] != key_s[:-1]
        # the lightest copy of each edge, already in (src, dst) order
        keep = order[first]
    else:
        keep = np.lexsort((dst, src))
    src, dst, w = src[keep], dst[keep], w[keep]
    counts = np.bincount(src, minlength=num_vertices).astype(np.int64)
    ro = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=ro[1:])
    wdt = np.dtype(dtype)
    if wdt == np.dtype(np.int32):
        w = np.rint(w)
        if w.size and not (-(2**31) <= w.min() and w.max() < 2**31):
            raise GraphConstructionError("edge weight outside the int32 range")
        wout = w.astype(np.int32)
    elif wdt == np.dtype(np.float32):
        with np.errstate(over="ignore"):
            wout = w.astype(np.float32)
        if np.isinf(wout).any() and np.any(np.isinf(wout) & np.isfinite(w)):
            raise GraphConstructionError("edge weight outside the float32 range")
    else:
        raise GraphConstructionError(f"unsupported weight dtype {dtype!r}")
    return CSRGraph(
        row_offsets=ro,
        col_indices=dst.astype(np.int32),
        weights=wout,
        name=name,
    )


def expand_frontier(
    graph: CSRGraph, frontier: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather all out-edges of ``frontier`` vertices in one vectorized pass.

    Returns ``(sources, destinations, weights)`` where ``sources[i]`` is the
    frontier vertex whose edge produced ``destinations[i]``.  This is the
    shared "edge expansion" primitive every frontier-based solver uses;
    :func:`gather_edges` does the work on the graph's own arrays.
    """
    return gather_edges(
        graph.row_offsets, graph.col_indices, graph.weights, frontier
    )


def gather_edges(
    row_offsets: np.ndarray,
    col_indices: np.ndarray,
    weights: np.ndarray,
    frontier: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`expand_frontier` over explicit CSR arrays, so a solver can
    gather from int64/float64 twins it cast once per solve.

    The ragged-gather idiom (repeat + cumulative offsets) keeps the work
    inside NumPy; destinations and weights keep the dtypes of
    ``col_indices`` and ``weights``.
    """
    frontier = np.asarray(frontier)
    starts = row_offsets[frontier]
    counts = row_offsets[frontier + 1] - starts
    cum = np.cumsum(counts)
    total = int(cum[-1]) if cum.size else 0
    # flat[i] walks each vertex's edge range contiguously: a global arange
    # plus one repeated per-vertex offset (start minus the running total of
    # preceding counts) — the same ragged gather with one repeat fewer.
    flat = np.arange(total, dtype=np.int64) + np.repeat(starts - cum + counts, counts)
    sources = np.repeat(frontier.astype(np.int64, copy=False), counts)
    return sources, col_indices[flat], weights[flat]
