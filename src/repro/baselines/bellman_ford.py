"""Frontier Bellman-Ford (the Gunrock 1.0 ``Gun-BF`` baseline).

An unordered worklist under the BSP model: every superstep expands the
whole frontier, atomically relaxes all its out-edges, and the vertices
whose distance improved form the next frontier (Gunrock's advance +
filter pattern).  Maximum parallelism, no ordering — the redundant-work
extreme the paper contrasts against Dijkstra in §3.1 ("Dijkstra's ...
can be 1000× more efficient than Bellman-Ford" on high-diameter graphs).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.baselines.common import (
    SSSPResult,
    init_distances,
    init_tree,
    make_frontier_relax,
    register_solver,
    resolve_sources,
    uniform_stats,
)
from repro.gpu.costmodel import CostModel
from repro.gpu.kernels import BspMachine
from repro.gpu.memory import SimMemory
from repro.calibration import resolve_device
from repro.gpu.specs import DeviceSpec
from repro.graphs.csr import CSRGraph
from repro.trace.tracer import Tracer

__all__ = ["solve_gun_bf", "bellman_ford_frontier"]

#: Gunrock's generic frontier machinery costs more per iteration than
#: Lonestar's purpose-built kernels (extra filter/compaction passes).
GUNROCK_OVERHEAD = 1.8


def bellman_ford_frontier(
    graph: CSRGraph,
    source: int,
    machine: BspMachine,
    *,
    solver_name: str,
    sources: Optional[Sequence[int]] = None,
) -> SSSPResult:
    """Shared frontier-BSP loop (used by Gun-BF and the NV stand-in)."""
    dist = init_distances(graph.num_vertices, source, sources)
    pred = init_tree(graph.num_vertices)
    mem = SimMemory()
    relax = make_frontier_relax(graph, mem, dist, pred)
    avg_deg = graph.average_degree()
    float_weights = not graph.is_integer_weighted

    frontier = resolve_sources(graph.num_vertices, source, sources)
    work = 0
    supersteps = 0
    while frontier.size:
        edges, improved = relax(frontier)
        machine.superstep(
            int(frontier.size), edges, avg_deg, float_weights=float_weights
        )
        supersteps += 1
        work += int(frontier.size)
        frontier = np.unique(improved)

    stats = uniform_stats(
        atomics=mem.stats.atomics,
        fences=mem.stats.fences,
        kernel_launches=machine.kernel_launches,
        work_count=work,
    )
    stats["supersteps"] = int(supersteps)
    stats["timeline_clamps"] = int(machine.timeline.clamps)
    return SSSPResult(
        solver=solver_name,
        graph_name=graph.name,
        source=source,
        dist=dist,
        predecessors=pred,
        work_count=work,
        time_us=machine.elapsed_us,
        timeline=machine.timeline,
        stats=stats,
    )


@register_solver("gun-bf")
def solve_gun_bf(
    graph: CSRGraph,
    source: int = 0,
    *,
    sources: Optional[Sequence[int]] = None,
    spec: Optional[DeviceSpec] = None,
    cost: Optional[CostModel] = None,
    tracer: Optional[Tracer] = None,
) -> SSSPResult:
    """Gunrock 1.0 Bellman-Ford on the simulated GPU."""
    spec, cost = resolve_device(spec, cost)
    machine = BspMachine(
        spec, cost, label="gun-bf", overhead_multiplier=GUNROCK_OVERHEAD,
        tracer=tracer,
    )
    return bellman_ford_frontier(
        graph, source, machine, solver_name="gun-bf", sources=sources
    )
