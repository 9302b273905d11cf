"""The pinned benchmark matrices the regression harness runs.

A *matrix* is a fixed (graph × solver) grid: graphs are pinned
:class:`~repro.graphs.suite.GraphSpec` recipes (generator + exact
parameters + seed, never scaled by the suite's ``--scale`` knob) and the
solver list is explicit.  Pinning matters because the harness's whole
point is longitudinal comparison — a ``BENCH_*.json`` produced last month
must describe the same work as one produced today, or a "regression" is
just a corpus change.

Three matrices are defined:

``small``
    3 graphs × 2 solvers, a few seconds end to end.  CI smoke and the
    bench test suite run this one.

``medium``
    6 graphs × 2 solvers spanning the paper's structural extremes (high-
    diameter road grids, power-law rmat, FEM mesh, uniform random) at
    sizes where the simulator's per-pass scheduler overhead dominates —
    the grid hot-path PRs are measured against.

``large``
    A single million-vertex road grid × ADDS only — the paper's
    road-USA regime scaled to what a host run can hold, run in the
    ordinary event-stepped simulator.  The tiny frontier-to-thread
    ratio makes it the sharpest latency-bound probe in the harness.

Graphs deliberately reuse the corpus generators (same code paths the
suite exercises) but with their own seeds, so a corpus re-tune does not
silently move the benchmark goalposts.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import ReproError
from repro.graphs.suite import GraphSpec, SuiteEntry

__all__ = ["MATRICES", "matrix_entries", "matrix_solvers"]


def _spec(generator: str, **params) -> GraphSpec:
    return GraphSpec.make(generator, **params)


#: matrix name -> (solver tuple, [(graph_name, category, spec), ...])
MATRICES: Dict[str, Tuple[Tuple[str, ...], List[Tuple[str, str, GraphSpec]]]] = {
    "small": (
        ("adds", "nf"),
        [
            ("bench-road-48x48", "road",
             _spec("grid_road", width=48, height=48, max_weight=8192, seed=101)),
            ("bench-rmat-10", "rmat",
             _spec("rmat", scale=10, edge_factor=8, max_weight=100, seed=102)),
            ("bench-mesh-2000", "mesh",
             _spec("fem_mesh", n=2000, band=24, stride=3, max_weight=64,
                   seed=103)),
        ],
    ),
    "medium": (
        ("adds", "nf"),
        [
            # high-diameter road grid: the latency-bound regime (§6.4)
            ("bench-road-140x80", "road",
             _spec("grid_road", width=140, height=80, max_weight=8192,
                   seed=111)),
            # road grid with diagonal shortcuts (highway structure)
            ("bench-road-diag-120x70", "road",
             _spec("grid_road", width=120, height=70, max_weight=8192,
                   diagonal_fraction=0.1, seed=112)),
            # power-law social analog: the bandwidth-bound regime
            ("bench-rmat-13", "rmat",
             _spec("rmat", scale=13, edge_factor=8, max_weight=100, seed=113)),
            ("bench-rmat-12-ef16", "rmat",
             _spec("rmat", scale=12, edge_factor=16, max_weight=1000,
                   seed=114)),
            # FEM mesh: mid utilization, many segments per bucket
            ("bench-mesh-12000", "mesh",
             _spec("fem_mesh", n=12000, band=36, stride=3, max_weight=64,
                   seed=115)),
            # uniform random: balanced load
            ("bench-gnm-12000", "random",
             _spec("random_gnm", n=12000, m=48000, max_weight=100, seed=116)),
        ],
    ),
    "large": (
        ("adds",),
        [
            ("bench-road-1000x1000", "road",
             _spec("grid_road", width=1000, height=1000, max_weight=8192,
                   seed=121)),
        ],
    ),
}


def matrix_solvers(name: str) -> Tuple[str, ...]:
    """The solver list of a named matrix."""
    if name not in MATRICES:
        raise ReproError(
            f"unknown bench matrix {name!r}; choose from {sorted(MATRICES)}"
        )
    return MATRICES[name][0]


def matrix_entries(name: str) -> List[SuiteEntry]:
    """The graphs of a named matrix, as engine-ready suite entries."""
    if name not in MATRICES:
        raise ReproError(
            f"unknown bench matrix {name!r}; choose from {sorted(MATRICES)}"
        )
    return [
        SuiteEntry(name=gname, category=category, spec=spec)
        for gname, category, spec in MATRICES[name][1]
    ]
