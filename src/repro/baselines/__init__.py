"""The six baseline SSSP implementations from the paper's §6.1.2.

=========== ==================================================== ==========
paper name  description                                          module
=========== ==================================================== ==========
``NF``      LonestarGPU 4.0 Near-Far (best prior GPU solution)   nearfar
``Gun-NF``  Gunrock 0.2 Near-Far (no dedup filter, heavier
            framework overhead)                                  nearfar
``Gun-BF``  Gunrock 1.0 Bellman-Ford (frontier BSP)              bellman_ford
``NV``      nvGRAPH's proprietary SSSP (black box)               nvgraph
``CPU-DS``  Galois 4.0 shared-memory delta-stepping              cpu_delta
``Dijkstra``Galois 4.0 serial binary-heap Dijkstra               dijkstra
=========== ==================================================== ==========

All solvers share the :class:`~repro.baselines.common.SSSPResult` contract
and are registered in :data:`~repro.baselines.common.SOLVERS`, so the
harness can run "every implementation on every graph" exactly like the
artifact's ``run_all.sh``.

Per the paper's fairness rules, every parallel solver derives its Δ from
the same Near-Far heuristic (:func:`~repro.baselines.heuristics.davidson_delta`)
and float graphs pay the software atomic-min surcharge.
"""

from repro.baselines.bellman_ford import solve_gun_bf
from repro.baselines.common import (
    SOLVERS,
    SolveRequest,
    SolverInfo,
    SSSPResult,
    get_solver,
    solver_names,
)
from repro.baselines.cpu_delta import solve_cpu_ds
from repro.baselines.dijkstra import solve_dijkstra
from repro.baselines.heuristics import NEAR_FAR_C, davidson_delta
from repro.baselines.nearfar import solve_gun_nf, solve_nf
from repro.baselines.nvgraph import solve_nv

__all__ = [
    "SSSPResult",
    "SolveRequest",
    "SolverInfo",
    "SOLVERS",
    "get_solver",
    "solver_names",
    "davidson_delta",
    "NEAR_FAR_C",
    "solve_nf",
    "solve_gun_nf",
    "solve_gun_bf",
    "solve_nv",
    "solve_cpu_ds",
    "solve_dijkstra",
]
