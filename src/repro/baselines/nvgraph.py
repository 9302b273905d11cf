"""Stand-in for NVIDIA's proprietary nvGRAPH SSSP (the ``NV`` baseline).

The paper treats ``nvgraphSssp()`` as a black box (Appendix A: "Line 76
calls nvgraphSssp(), which is a black box function") and reports it as the
slowest GPU baseline (ADDS is 13.4× faster on average; Table 4 has no NV
work counts because the source is closed).

nvGRAPH's SSSP is a frontier-iterative method over the library's internal
CSC representation, with per-call graph setup and a heavier per-iteration
framework than either Lonestar or Gunrock.  The stand-in therefore runs
the Bellman-Ford frontier loop with a library-grade overhead multiplier
and a fixed setup charge for graph conversion — enough to land it in the
paper's observed performance ordering NF > Gun-NF > Gun-BF > NV.

Matching the artifact's observation that nvGRAPH computes in float
internally ("nv_graph uses float data types internally, so we sometimes
get conversion problems for int graphs"), this solver always pays the
float atomic surcharge and reports float32-rounded distances.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.baselines.bellman_ford import bellman_ford_frontier
from repro.baselines.common import SSSPResult, register_solver
from repro.trace.tracer import Tracer
from repro.gpu.costmodel import CostModel
from repro.gpu.kernels import BspMachine
from repro.calibration import resolve_device
from repro.gpu.specs import DeviceSpec
from repro.graphs.csr import CSRGraph

__all__ = ["solve_nv"]

#: Library-framework per-iteration overhead relative to Lonestar kernels.
NV_OVERHEAD = 2.6

#: One-time nvgraph setup: handle creation + CSR→CSC conversion, µs.
NV_SETUP_US = 60.0


@register_solver("nv")
def solve_nv(
    graph: CSRGraph,
    source: int = 0,
    *,
    sources: Optional[Sequence[int]] = None,
    spec: Optional[DeviceSpec] = None,
    cost: Optional[CostModel] = None,
    tracer: Optional[Tracer] = None,
) -> SSSPResult:
    """The nvGRAPH black-box stand-in."""
    spec, cost = resolve_device(spec, cost)
    machine = BspMachine(
        spec, cost, label="nv", overhead_multiplier=NV_OVERHEAD, tracer=tracer
    )
    machine.charge_us(NV_SETUP_US)
    # nvGRAPH computes in float32 regardless of the input weight type.
    fgraph = graph.as_float()
    result = bellman_ford_frontier(
        fgraph, source, machine, solver_name="nv", sources=sources
    )
    # float32 rounding of the reported distances (the artifact's "distances
    # differing by 1" verification caveat for int graphs).
    result.dist = np.where(
        np.isfinite(result.dist),
        result.dist.astype(np.float32).astype(np.float64),
        result.dist,
    )
    result.graph_name = graph.name
    return result
