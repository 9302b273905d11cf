"""The dirty-frontier rule: turn (old distances, edge deltas) into a
warm start a label-correcting solver can finish from.

Given a distance array ``dist`` that was exact for the *pre-update*
graph and the net :class:`~repro.dynamic.updates.EdgeDeltas` of the
batches applied since, :func:`incremental_seed` produces

1. a **warm distance array** with no under-estimates w.r.t. the new
   graph, and
2. the **dirty frontier**: the vertices (at their warm distances) that
   must be re-expanded for relaxation to converge to the new exact
   distances.

The rule, in two conservative steps:

**Invalidate** — a cached distance can be *too small* only if every old
shortest path to that vertex got worse, i.e. the vertex lies downstream
(in the old tight-edge DAG) of an increased or deleted edge that was
*tight*: ``dist[u] + w_old == dist[v]``.  We over-approximate that
downstream set by forward reachability from the tight heads in the
**new** graph (chains through a deleted edge are covered because the
deleted edge's own head is itself a root), reset those vertices to
``inf``, and restore the sources to 0.

**Seed** — after invalidation every remaining finite entry is a true
path length in the new graph, hence an upper bound.  Convergence then
only needs every *violated* edge — ``warm[u] + w < warm[v]`` — to be
relaxed, and label correction takes care of the rest: the frontier is
the set of violated-edge tails, found with one vectorized O(m) scan.
This single rule covers decreased weights, inserted edges, *and* the
boundary into the invalidated region; an empty or idempotent batch
yields an empty frontier and a zero-work re-solve.

Why the result is **bit-identical** to a from-scratch solve: every
solver here computes ``dist[v]`` as a float64 telescoped sum ``dist[u] +
w`` along some tight path, and converges to the minimum of those sums
over all paths.  Warm values that survive invalidation are themselves
telescoped sums over paths that still exist unchanged, so the warm
solve minimizes over the same value set — equal values, and (non-NaN,
non-negative) equal float64 values are bit-equal.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.dynamic.updates import EdgeDeltas
from repro.errors import DynamicError
from repro.graphs.csr import CSRGraph

__all__ = ["incremental_seed", "changes_affect"]


def _edge_sources(graph: CSRGraph) -> np.ndarray:
    """Per-edge source vertex (the CSR row id, repeated by out-degree)."""
    return np.repeat(
        np.arange(graph.num_vertices, dtype=np.int64),
        np.diff(graph.row_offsets),
    )


def _reachable_from(graph: CSRGraph, roots: np.ndarray) -> np.ndarray:
    """Boolean mask of vertices forward-reachable from ``roots``
    (inclusive), via level-synchronous vectorized BFS."""
    seen = np.zeros(graph.num_vertices, dtype=bool)
    seen[roots] = True
    frontier = roots
    ro, ci = graph.row_offsets, graph.col_indices
    while frontier.size:
        starts = ro[frontier]
        counts = ro[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        cum = np.cumsum(counts)
        flat = np.arange(total, dtype=np.int64) + np.repeat(
            starts - cum + counts, counts
        )
        nxt = np.unique(ci[flat].astype(np.int64))
        nxt = nxt[~seen[nxt]]
        seen[nxt] = True
        frontier = nxt
    return seen


def incremental_seed(
    graph: CSRGraph,
    warm_from: np.ndarray,
    deltas: Optional[EdgeDeltas],
    source: int,
    sources=None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Dict[str, int]]:
    """Build the warm start for an incremental re-solve on ``graph``
    (the *post-update* graph).

    ``warm_from`` must be the exact distance array of the same
    ``source``/``sources`` on the graph as it was before the changes in
    ``deltas`` were applied (``None``/empty deltas assert the graph is
    unchanged, e.g. re-solving after an idempotent batch).

    Returns ``(warm, frontier, frontier_dists, info)``: the patched
    float64 distance array (fresh copy, safe to hand to a solver as its
    live ``dist``), the dirty-frontier vertex ids (int64, sorted), the
    warm distance of each frontier vertex, and an ``info`` dict with
    ``roots`` / ``invalidated`` / ``frontier`` counts for solver stats.
    """
    from repro.baselines.common import resolve_sources

    n = graph.num_vertices
    warm = np.array(warm_from, dtype=np.float64, copy=True)
    if warm.ndim != 1 or warm.size != n:
        raise DynamicError(
            f"warm_from has {warm.size} entries but the graph has {n} vertices"
        )
    if np.isnan(warm).any() or (warm[np.isfinite(warm)] < 0).any():
        raise DynamicError("warm_from must be non-negative and NaN-free")
    seeds = resolve_sources(n, source, sources)

    n_roots = 0
    n_invalidated = 0
    if deltas is not None and deltas.size:
        # invalidation roots: heads of worsened (increased or deleted)
        # edges that were tight under the old distances
        worsened = np.isnan(deltas.new_w) | (deltas.new_w > deltas.old_w)
        worsened &= ~np.isnan(deltas.old_w)
        du = warm[deltas.src]
        tight = np.isfinite(du) & (du + deltas.old_w == warm[deltas.dst])
        roots = np.unique(deltas.dst[worsened & tight])
        n_roots = int(roots.size)
        if n_roots:
            affected = _reachable_from(graph, roots)
            n_invalidated = int(np.count_nonzero(affected))
            warm[affected] = np.inf
    warm[seeds] = 0.0

    # violated-edge scan: frontier = tails of edges that still relax
    esrc = _edge_sources(graph)
    # float64 + int32/float32 widens the weights exactly; inf tails
    # propagate to inf and never violate
    cand = warm[esrc] + graph.weights
    violated = cand < warm[graph.col_indices.astype(np.int64)]
    frontier = np.unique(esrc[violated])
    info = {
        "roots": n_roots,
        "invalidated": n_invalidated,
        "frontier": int(frontier.size),
    }
    return warm, frontier, warm[frontier], info


def changes_affect(dist: np.ndarray, deltas: EdgeDeltas) -> bool:
    """Whether ``deltas`` can change any distance in ``dist`` — the
    selective cache-invalidation test a serving session runs per cached
    source.

    A cached solve is unaffected exactly when no changed edge matters
    from its source: every worsened edge was non-tight (slack absorbs
    the increase/deletion) and every improved/inserted edge still fails
    to relax (``dist[u] + w_new >= dist[v]``).  Conservative in the
    right direction: ``True`` may over-invalidate (costing a warm
    re-solve), ``False`` is only returned when provably nothing moves.
    """
    if deltas.size == 0:
        return False
    dist = np.asarray(dist, dtype=np.float64)
    du = dist[deltas.src]
    dv = dist[deltas.dst]
    finite = np.isfinite(du)
    worsened = ~np.isnan(deltas.old_w) & (
        np.isnan(deltas.new_w) | (deltas.new_w > deltas.old_w)
    )
    if bool(np.any(worsened & finite & (du + deltas.old_w == dv))):
        return True
    improved = ~np.isnan(deltas.new_w)
    return bool(np.any(improved & finite & (du + deltas.new_w < dv)))
