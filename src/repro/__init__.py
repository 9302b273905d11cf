"""repro — ADDS (Asynchronous Dynamic Delta-Stepping) SSSP, reproduced.

A complete Python reproduction of *"A Fast Work-Efficient SSSP Algorithm
for GPUs"* (Wang, Fussell, Lin — PPoPP 2021): the ADDS scheduler and its
SRMW bucket-queue protocol, a discrete-event GPU on which it executes, the
paper's six baselines, the evaluation corpus, and the harness that
regenerates every table and figure.  See DESIGN.md for the system map and
EXPERIMENTS.md for paper-vs-measured numbers.

Quickstart::

    import repro

    graph = repro.grid_road(128, 64, seed=1)
    result = repro.sssp(graph, source=0)            # ADDS on the sim GPU
    baseline = repro.sssp(graph, 0, algorithm="nf")  # prior state of the art
    print(result.dist[:5], baseline.time_us / result.time_us)
"""

from repro.baselines import (
    SOLVERS,
    SolveRequest,
    SolverInfo,
    SSSPResult,
    davidson_delta,
    get_solver,
    solver_names,
    solve_cpu_ds,
    solve_dijkstra,
    solve_gun_bf,
    solve_gun_nf,
    solve_nf,
    solve_nv,
)
from repro.calibration import default_cost, default_gpu, sim_cost, sim_gpu
from repro.core import AddsConfig, solve_adds
from repro.errors import ReproError
from repro.graphs import (
    CSRGraph,
    build_suite,
    clique_chain,
    fem_mesh,
    from_edge_list,
    grid_road,
    named_graph,
    random_geometric,
    random_gnm,
    read_gr,
    rmat,
    write_gr,
)
from repro.gpu import CPU_I9_7900X, RTX_2080TI, RTX_3090, CostModel, DeviceSpec
from repro.harness import run_suite, write_result_files
from repro.validation import assert_results_match, verify_results

__version__ = "1.0.0"

__all__ = [
    "sssp",
    "SSSPResult",
    "SolveRequest",
    "SolverInfo",
    "SOLVERS",
    "get_solver",
    "solver_names",
    "solve_adds",
    "AddsConfig",
    "solve_nf",
    "solve_gun_nf",
    "solve_gun_bf",
    "solve_nv",
    "solve_cpu_ds",
    "solve_dijkstra",
    "davidson_delta",
    "CSRGraph",
    "from_edge_list",
    "grid_road",
    "rmat",
    "random_gnm",
    "random_geometric",
    "fem_mesh",
    "clique_chain",
    "read_gr",
    "write_gr",
    "build_suite",
    "named_graph",
    "DeviceSpec",
    "CostModel",
    "RTX_2080TI",
    "RTX_3090",
    "CPU_I9_7900X",
    "sim_gpu",
    "sim_cost",
    "default_gpu",
    "default_cost",
    "run_suite",
    "write_result_files",
    "verify_results",
    "assert_results_match",
    "ReproError",
    "__version__",
]


def sssp(graph, source=0, *, algorithm="adds", **options):
    """Solve single-source shortest paths.

    Parameters
    ----------
    graph:
        A :class:`~repro.graphs.csr.CSRGraph` (build one with
        :func:`from_edge_list`, a generator, or :func:`read_gr`).
    source:
        Source vertex id.
    algorithm:
        One of ``"adds"`` (the paper's contribution, default), ``"nf"``,
        ``"gun-nf"``, ``"gun-bf"``, ``"nv"``, ``"cpu-ds"``, ``"dijkstra"``.
    options:
        Keyword arguments of the solver (e.g. ``spec=``/``cost=`` for GPU
        solvers, ``config=AddsConfig(...)`` for ADDS, ``delta=`` for the
        delta-stepping family).  One the solver does not take raises
        :class:`~repro.errors.SolverError` naming the solvers that do.

    Returns
    -------
    SSSPResult
        Distances, work count, simulated time, parallelism timeline.
    """
    return get_solver(algorithm).solve(
        SolveRequest(graph=graph, source=source, options=options)
    )
