"""Serial Dijkstra with a binary heap (the Galois 4.0 baseline).

The paper's sequential reference: "a highly tuned serial implementation of
Dijkstra's algorithm from Galois 4.0, which implements the priority queue
using a binary heap".  Work-optimal — each vertex is expanded exactly once
(plus stale-pop discards) — which is why Table 4's last row shows every
other solver doing at least as much work.

Implemented with lazy deletion (re-push on improvement, skip stale pops),
like the Galois binary-heap wrapper.  Time comes from the CPU cost model:
edge relaxations plus ``O(log n)`` heap operations.
"""

from __future__ import annotations

import heapq
from typing import Optional, Sequence

import numpy as np

from repro.baselines.common import (
    SSSPResult,
    init_distances,
    init_tree,
    register_solver,
    resolve_sources,
    uniform_stats,
)
from repro.gpu.costmodel import CpuCostModel
from repro.gpu.specs import CPU_I9_7900X, CpuSpec
from repro.gpu.timeline import Timeline
from repro.graphs.csr import CSRGraph

__all__ = ["solve_dijkstra"]


@register_solver("dijkstra")
def solve_dijkstra(
    graph: CSRGraph,
    source: int = 0,
    *,
    sources: Optional[Sequence[int]] = None,
    cpu: Optional[CpuSpec] = None,
    cost: Optional[CpuCostModel] = None,
    warm_from: Optional[np.ndarray] = None,
    updates: Optional[object] = None,
) -> SSSPResult:
    """Exact serial SSSP; the oracle every other solver is verified against.

    ``sources`` enables multi-source runs (distance to the nearest seed).
    ``warm_from``/``updates`` enable incremental re-solve after edge
    changes (see :mod:`repro.dynamic`): the heap is seeded from the
    dirty frontier instead of the sources, and the lazy-deletion loop —
    a label corrector once seeded with upper bounds — converges to
    distances bit-identical to a from-scratch run.

    The loop runs on Python scalars: it reads the CSR arrays and reads
    and writes ``dist``/``pred`` through memoryviews, which index to
    Python ints and floats without copying (a NumPy scalar boxed per
    edge would double the solve time), keep per-solve memory at the two
    result arrays, and see in-place weight patches without re-preparing.
    """
    from repro.errors import SolverError

    if updates is not None and warm_from is None:
        raise SolverError("updates= requires warm_from= distances")
    cost = cost if cost is not None else CpuCostModel(cpu or CPU_I9_7900X)
    n = graph.num_vertices
    srcs = resolve_sources(n, source, sources)
    seed_info = None
    if warm_from is not None:
        from repro.dynamic.frontier import incremental_seed

        dist, frontier, frontier_dists, seed_info = incremental_seed(
            graph, warm_from, updates, source, sources
        )
    else:
        dist = init_distances(n, source, sources)
    pred = init_tree(n)
    dist_v = memoryview(dist)
    pred_v = memoryview(pred)
    row = memoryview(graph.row_offsets)
    cols = memoryview(graph.col_indices)
    wts = memoryview(graph.weights)
    heappop, heappush = heapq.heappop, heapq.heappush

    if warm_from is None:
        heap = [(0.0, s) for s in srcs.tolist()]
    else:
        heap = list(zip(frontier_dists.tolist(), frontier.tolist()))
        heapq.heapify(heap)
    heap_ops = len(heap)
    pops = 0
    expanded = 0
    edges_relaxed = 0
    while heap:
        d, v = heappop(heap)
        pops += 1
        if d > dist_v[v]:
            continue  # stale entry (lazy deletion)
        expanded += 1
        lo, hi = row[v], row[v + 1]
        edges_relaxed += hi - lo
        for i in range(lo, hi):
            u = cols[i]
            nd = d + wts[i]
            if nd < dist_v[u]:
                dist_v[u] = nd
                pred_v[u] = v
                heappush(heap, (nd, u))
                heap_ops += 1
    heap_ops += pops

    time_us = cost.dijkstra_us(edges_relaxed, heap_ops, n)
    tl = Timeline(label="dijkstra")
    tl.record(0.0, 1.0)
    tl.record(time_us, 0.0)
    # serial CPU code: no atomics, no fences, no kernels
    stats = uniform_stats(work_count=expanded)
    stats["heap_ops"] = int(heap_ops)
    stats["stale_pops"] = int(pops - expanded)
    stats["edges_relaxed"] = int(edges_relaxed)
    if seed_info is not None:
        # only on warm runs, so canonical stats stay bit-identical
        stats.update(
            warm_start=True,
            warm_roots=seed_info["roots"],
            warm_invalidated=seed_info["invalidated"],
            warm_frontier=seed_info["frontier"],
        )
    return SSSPResult(
        solver="dijkstra",
        graph_name=graph.name,
        source=source,
        dist=dist,
        predecessors=pred,
        work_count=expanded,
        time_us=time_us,
        timeline=tl,
        stats=stats,
    )
