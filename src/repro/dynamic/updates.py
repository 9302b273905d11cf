"""The edge-update stream model: batches of weight/topology changes.

Real serving traffic against road and social graphs is dominated by
small edge updates — a road closes, a congestion weight rises, a link
appears.  ROADMAP item 2 ("dynamic graphs and incremental SSSP") models
that traffic as a stream of :class:`UpdateBatch`\\ es, each a short
ordered list of :class:`EdgeUpdate`\\ s of four kinds:

``increase`` / ``decrease``
    Change the weight of an existing edge (strictly up / strictly down;
    the split kinds make intent explicit and let validation catch
    generator and caller bugs early).
``insert`` / ``delete``
    Add a new edge / remove an existing one — **topology** changes,
    which force a CSR rebuild (CSR has no spare room in a row).

:func:`apply_updates` validates the whole batch in one sequential pass,
then applies it to a :class:`~repro.graphs.csr.CSRGraph`:

- a weight-only batch **patches** ``graph.weights`` **in place**, the
  graph's one weight array.  The ADDS and Dijkstra relax loops read it
  through memoryviews of the live buffer, so they see the patch with
  nothing to rebuild.  The weight statistics (``avg_weight``/
  ``max_weight``) feeding the Δ heuristic are dropped from the stats
  cache.  The same graph object is returned.
- a batch containing any ``insert``/``delete`` **rebuilds** the CSR
  arrays through :func:`~repro.graphs.csr.from_edge_list` and returns a
  *new* graph.

Either way the result carries an :class:`EdgeDeltas` record — the net
per-edge ``(old weight, new weight)`` deltas versus the pre-batch graph
— which is exactly what the incremental re-solve path
(:mod:`repro.dynamic.frontier`) needs to invalidate and re-seed.
Updates within a batch apply **sequentially** (a later update sees the
effect of an earlier one), so an increase followed by a decrease back to
the original weight nets out to an empty delta set — the idempotent
case the dirty-frontier rule turns into a zero-work re-solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import DynamicError
from repro.graphs.csr import CSRGraph, from_edge_list

__all__ = [
    "UPDATE_KINDS",
    "EdgeUpdate",
    "UpdateBatch",
    "EdgeDeltas",
    "UpdateResult",
    "apply_updates",
]

#: The four update kinds, in the order the docs present them.
UPDATE_KINDS = ("increase", "decrease", "insert", "delete")

_WEIGHT_KINDS = ("increase", "decrease", "insert")


@dataclass(frozen=True)
class EdgeUpdate:
    """One edge change.  ``weight`` is the *new* weight for
    ``increase``/``decrease``/``insert`` and must be ``None`` for
    ``delete``."""

    kind: str
    src: int
    dst: int
    weight: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in UPDATE_KINDS:
            raise DynamicError(
                f"unknown update kind {self.kind!r}; one of {UPDATE_KINDS}"
            )
        for end in (self.src, self.dst):
            # Python or NumPy integers; a bool is no vertex id
            if not isinstance(end, Integral) or isinstance(end, bool):
                raise DynamicError(
                    f"{self.kind} update: vertex {end!r} is not an integer"
                )
        if self.kind in _WEIGHT_KINDS:
            if self.weight is None:
                raise DynamicError(f"{self.kind} update needs a weight")
            if not isinstance(self.weight, Real):
                raise DynamicError(
                    f"{self.kind} weight {self.weight!r} is not a number"
                )
            if not np.isfinite(self.weight) or self.weight < 0:
                raise DynamicError(
                    f"{self.kind} weight must be finite and non-negative "
                    f"(got {self.weight!r})"
                )
        elif self.weight is not None:
            raise DynamicError("delete update takes no weight")


@dataclass(frozen=True)
class UpdateBatch:
    """An ordered batch of edge updates, applied atomically to a graph.

    Batches are the unit of application, invalidation, and incremental
    re-solve: queries observe the graph either before or after a batch,
    never mid-batch.
    """

    updates: Tuple[EdgeUpdate, ...]

    def __init__(self, updates: Iterable[EdgeUpdate]) -> None:
        object.__setattr__(self, "updates", tuple(updates))
        for u in self.updates:
            if not isinstance(u, EdgeUpdate):
                raise DynamicError(f"not an EdgeUpdate: {u!r}")

    def __len__(self) -> int:
        return len(self.updates)

    def __iter__(self):
        return iter(self.updates)

    @property
    def topology_changing(self) -> bool:
        """Whether applying this batch requires a CSR rebuild."""
        return any(u.kind in ("insert", "delete") for u in self.updates)

    def kind_counts(self) -> Dict[str, int]:
        out = {k: 0 for k in UPDATE_KINDS}
        for u in self.updates:
            out[u.kind] += 1
        return out


@dataclass(frozen=True)
class EdgeDeltas:
    """Net per-edge weight deltas of one or more applied batches.

    Parallel arrays: edge ``(src[i], dst[i])`` had weight ``old_w[i]``
    before the batch (``nan`` = the edge did not exist) and ``new_w[i]``
    after it (``nan`` = the edge was deleted).  Edges whose net change
    is zero are not recorded.  This is the currency the dirty-frontier
    computation and the cache-invalidation test consume.
    """

    src: np.ndarray
    dst: np.ndarray
    old_w: np.ndarray
    new_w: np.ndarray

    @property
    def size(self) -> int:
        return int(self.src.size)

    @staticmethod
    def empty() -> "EdgeDeltas":
        e = np.empty(0, dtype=np.int64)
        f = np.empty(0, dtype=np.float64)
        return EdgeDeltas(src=e, dst=e.copy(), old_w=f, new_w=f.copy())

    @staticmethod
    def from_map(
        deltas: Dict[Tuple[int, int], Tuple[float, float]]
    ) -> "EdgeDeltas":
        """Build from ``(u, v) -> (old, new)`` (``nan`` = absent),
        dropping net no-ops and sorting by ``(u, v)`` for determinism."""
        items = [
            (u, v, o, w)
            for (u, v), (o, w) in sorted(deltas.items())
            if not (np.isnan(o) and np.isnan(w)) and o != w
        ]
        if not items:
            return EdgeDeltas.empty()
        arr = np.asarray(items, dtype=np.float64)
        return EdgeDeltas(
            src=arr[:, 0].astype(np.int64),
            dst=arr[:, 1].astype(np.int64),
            old_w=arr[:, 2].copy(),
            new_w=arr[:, 3].copy(),
        )

    def merge(self, later: "EdgeDeltas") -> "EdgeDeltas":
        """Compose with deltas applied *after* these (``self`` then
        ``later``): keeps each edge's earliest old weight and latest new
        weight, so a warm distance array from before ``self`` can still
        be re-seeded correctly after both."""
        merged: Dict[Tuple[int, int], Tuple[float, float]] = {}
        for i in range(self.size):
            key = (int(self.src[i]), int(self.dst[i]))
            merged[key] = (float(self.old_w[i]), float(self.new_w[i]))
        for i in range(later.size):
            key = (int(later.src[i]), int(later.dst[i]))
            new = float(later.new_w[i])
            if key in merged:
                old = merged[key][0]
                if math.isnan(old) and math.isnan(new):
                    # Insert-then-delete across batches annihilates: the
                    # edge was absent before ``self`` and is absent after
                    # ``later``, so the composed delta must vanish —
                    # resolving to the stale inserted weight (or keeping
                    # a nan→nan pair for ``from_map`` to interpret) would
                    # poison warm re-seeding.
                    del merged[key]
                else:
                    merged[key] = (old, new)
            else:
                merged[key] = (float(later.old_w[i]), new)
        return EdgeDeltas.from_map(merged)


@dataclass(frozen=True)
class UpdateResult:
    """What :func:`apply_updates` returns."""

    #: The post-batch graph: the *same* object for weight-only batches
    #: (patched in place), a fresh one after a CSR rebuild.
    graph: CSRGraph
    #: Net per-edge deltas versus the pre-batch graph.
    deltas: EdgeDeltas
    #: Whether the CSR was rebuilt (insert/delete present).
    topology_changed: bool
    #: How many updates the batch carried.
    n_updates: int = 0


def _find_edge(graph: CSRGraph, u: int, v: int) -> int:
    """Position of edge ``(u, v)`` in the CSR arrays, or -1.  Parallel
    edges resolve to the first occurrence (updates address that copy)."""
    lo, hi = int(graph.row_offsets[u]), int(graph.row_offsets[u + 1])
    hits = np.flatnonzero(graph.col_indices[lo:hi] == v)
    return lo + int(hits[0]) if hits.size else -1


def _coerce_weight(graph: CSRGraph, u: EdgeUpdate) -> float:
    """The update's weight as the graph stores it: an integral value in
    int32 range, or the float32 rounding of the value.  Every weight a
    batch records (the weight array and the deltas) is this one value."""
    w = float(u.weight)
    if graph.is_integer_weighted:
        if not w.is_integer():
            raise DynamicError(
                f"{u.kind} ({u.src}->{u.dst}): weight {w!r} is not integral "
                f"but {graph.name!r} has int32 weights"
            )
        if w > np.iinfo(np.int32).max:
            raise DynamicError(
                f"{u.kind} ({u.src}->{u.dst}): weight {w!r} does not fit "
                f"the int32 weights of {graph.name!r}"
            )
        return w
    with np.errstate(over="ignore"):
        rounded = float(np.float32(w))
    if math.isinf(rounded):
        raise DynamicError(
            f"{u.kind} ({u.src}->{u.dst}): weight {w!r} overflows the "
            f"float32 weights of {graph.name!r}"
        )
    return rounded


def apply_updates(
    graph: CSRGraph, batch: UpdateBatch | Sequence[EdgeUpdate]
) -> UpdateResult:
    """Apply one update batch to ``graph``; see the module docstring.

    Weight-only batches patch ``graph.weights`` in place and return the
    same object; batches with inserts or deletes return a rebuilt
    :class:`CSRGraph`.  Updates apply sequentially; each new weight is
    rounded to the graph's dtype.  An invalid update (missing edge,
    wrong direction, out-of-range vertex, duplicate insert, a weight the
    dtype cannot hold) raises :class:`~repro.errors.DynamicError` and
    rejects the whole batch — the input graph is never left
    half-patched.
    """
    if not isinstance(batch, UpdateBatch):
        batch = UpdateBatch(batch)
    n = graph.num_vertices
    # Validate the whole batch before any mutation.  Per touched (u, v):
    # [weight before the batch, CSR position of its live first copy or
    # -1, current weight], where a nan weight means no live edge.  A
    # deleted first copy stays deleted (``dead``), so a later insert of
    # the same edge is a new edge.
    touched: Dict[Tuple[int, int], List] = {}
    dead: List[int] = []
    for u in batch:
        if not (0 <= u.src < n and 0 <= u.dst < n):
            raise DynamicError(
                f"{u.kind} ({u.src}->{u.dst}) out of range for {n} vertices"
            )
        e = touched.get((u.src, u.dst))
        if e is None:
            pos = _find_edge(graph, u.src, u.dst)
            w = float(graph.weights[pos]) if pos >= 0 else math.nan
            e = touched[(u.src, u.dst)] = [w, pos, w]
        old = e[2]
        if u.kind == "insert":
            if not math.isnan(old):
                raise DynamicError(
                    f"insert ({u.src}->{u.dst}): edge already exists in "
                    f"{graph.name!r}; use increase/decrease"
                )
            e[2] = _coerce_weight(graph, u)
            continue
        if math.isnan(old):
            raise DynamicError(
                f"{u.kind} ({u.src}->{u.dst}): no such edge in {graph.name!r}"
            )
        if u.kind == "delete":
            if e[1] >= 0:
                dead.append(e[1])
                e[1] = -1
            e[2] = math.nan
            continue
        new = _coerce_weight(graph, u)
        if u.kind == "increase" and not new > old:
            raise DynamicError(
                f"increase ({u.src}->{u.dst}): new weight {new!r} is not "
                f"above the current {old!r}"
            )
        if u.kind == "decrease" and not new < old:
            raise DynamicError(
                f"decrease ({u.src}->{u.dst}): new weight {new!r} is not "
                f"below the current {old!r}"
            )
        e[2] = new

    deltas = EdgeDeltas.from_map({k: (e[0], e[2]) for k, e in touched.items()})
    if not batch.topology_changing:
        for _, pos, new in touched.values():
            graph.weights[pos] = new
        # weight statistics feeding the Δ heuristic are stale now
        graph._stats_cache.pop("avg_weight", None)
        graph._stats_cache.pop("max_weight", None)
        return UpdateResult(graph, deltas, False, len(batch))

    alive = np.ones(graph.num_edges, dtype=bool)
    alive[dead] = False
    ew = graph.weights.astype(np.float64)
    added = []
    for (src, dst), (_, pos, w) in touched.items():
        if pos >= 0:
            ew[pos] = w
        elif not math.isnan(w):
            added.append((src, dst, w))
    esrc = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.row_offsets))
    kept = np.stack(
        [esrc[alive], graph.col_indices[alive], ew[alive]], axis=1
    )
    edges = np.concatenate(
        [kept, np.asarray(added, dtype=np.float64).reshape(-1, 3)]
    )
    rebuilt = from_edge_list(
        n, edges, dtype=str(graph.weights.dtype), name=graph.name
    )
    return UpdateResult(rebuilt, deltas, True, len(batch))
