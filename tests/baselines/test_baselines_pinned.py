"""The BSP baselines' outputs pinned bit for bit on small graphs.

NF, Gun-NF, Gun-BF, NV and CPU-DS all relax a frontier with one batched
``atomicMin``, and the winner rule (the first batch entry holding the
minimum stores its source as the predecessor) decides the shortest-path
tree on graphs with tied paths.  This file pins the sha256 of the
distances and of the predecessor tree, the simulated time, the work and
atomic counts and each solver's own loop counters, on an int road grid,
its float twin and an rmat graph, from one source and from several.  Any
change to the relax or to a solver loop that moves one simulated number
fails here.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.baselines import get_solver
from repro.baselines.common import SolveRequest
from repro.graphs import grid_road, rmat

SOLVERS = ("nf", "gun-nf", "gun-bf", "nv", "cpu-ds")

#: Loop counters a solver reports beside the uniform keys.
LOOP_KEYS = ("supersteps", "rounds", "far_splits", "duplicates_filtered")

# Small weight ranges give many tied shortest paths, so the predecessor
# hashes pin the winner rule, not only the distances.
GRAPHS = {
    "road-int": lambda: grid_road(20, 14, max_weight=16, seed=5),
    "road-float": lambda: grid_road(20, 14, max_weight=16, seed=5).as_float(),
    "rmat-int": lambda: rmat(9, edge_factor=8, max_weight=8, seed=7),
}

SOURCES = {
    "single": (0, None),
    "multi": (40, [0, 40, 211]),
}


def _sha(arr) -> str:
    return hashlib.sha256(arr.tobytes()).hexdigest()[:16]


def _observed(r) -> dict:
    out = {
        "dist": _sha(r.dist),
        "pred": _sha(r.predecessors),
        "time_us": r.time_us,
        "work_count": r.work_count,
        "atomics": r.stats["atomics"],
    }
    out.update({k: r.stats[k] for k in LOOP_KEYS if k in r.stats})
    return out


def _solve(solver: str, graph: str, sources: str):
    source, srcs = SOURCES[sources]
    options = {} if srcs is None else {"sources": srcs}
    request = SolveRequest(GRAPHS[graph](), source, options=options)
    return get_solver(solver).solve(request)


_PINNED = {
    'cpu-ds/rmat-int/multi': {
        'atomics': 5907,
        'dist': '4eaf5ac69b99a042',
        'pred': '5cb0916e521988a8',
        'rounds': 9,
        'time_us': 19.03704301075269,
        'work_count': 820,
    },
    'cpu-ds/rmat-int/single': {
        'atomics': 5989,
        'dist': '7352bb6023d5d4cb',
        'pred': '50e54537c84e9d3c',
        'rounds': 9,
        'time_us': 19.29540796963947,
        'work_count': 841,
    },
    'cpu-ds/road-float/multi': {
        'atomics': 1578,
        'dist': '58953e2a46d78938',
        'pred': '4b32ad27c9b89c77',
        'rounds': 25,
        'time_us': 40.08436207609595,
        'work_count': 416,
    },
    'cpu-ds/road-float/single': {
        'atomics': 1513,
        'dist': '8d0220983a69f9ec',
        'pred': '4c36f899e1cd37d6',
        'rounds': 35,
        'time_us': 55.522625448028684,
        'work_count': 399,
    },
    'cpu-ds/road-int/multi': {
        'atomics': 1578,
        'dist': '58953e2a46d78938',
        'pred': '4b32ad27c9b89c77',
        'rounds': 25,
        'time_us': 40.08436207609595,
        'work_count': 416,
    },
    'cpu-ds/road-int/single': {
        'atomics': 1513,
        'dist': '8d0220983a69f9ec',
        'pred': '4c36f899e1cd37d6',
        'rounds': 35,
        'time_us': 55.522625448028684,
        'work_count': 399,
    },
    'gun-bf/rmat-int/multi': {
        'atomics': 5925,
        'dist': '4eaf5ac69b99a042',
        'pred': '5cb0916e521988a8',
        'supersteps': 8,
        'time_us': 34.72543812568404,
        'work_count': 824,
    },
    'gun-bf/rmat-int/single': {
        'atomics': 6016,
        'dist': '7352bb6023d5d4cb',
        'pred': '50e54537c84e9d3c',
        'supersteps': 8,
        'time_us': 34.70139184869659,
        'work_count': 848,
    },
    'gun-bf/road-float/multi': {
        'atomics': 1804,
        'dist': '58953e2a46d78938',
        'pred': '7c9b9594bcd172e8',
        'supersteps': 22,
        'time_us': 94.46371417639043,
        'work_count': 481,
    },
    'gun-bf/road-float/single': {
        'atomics': 1326,
        'dist': '8d0220983a69f9ec',
        'pred': '4c36f899e1cd37d6',
        'supersteps': 34,
        'time_us': 145.9893764544215,
        'work_count': 358,
    },
    'gun-bf/road-int/multi': {
        'atomics': 1804,
        'dist': '58953e2a46d78938',
        'pred': '7c9b9594bcd172e8',
        'supersteps': 22,
        'time_us': 93.55857131924756,
        'work_count': 481,
    },
    'gun-bf/road-int/single': {
        'atomics': 1326,
        'dist': '8d0220983a69f9ec',
        'pred': '4c36f899e1cd37d6',
        'supersteps': 34,
        'time_us': 144.59051931156435,
        'work_count': 358,
    },
    'gun-nf/rmat-int/multi': {
        'atomics': 5907,
        'dist': '4eaf5ac69b99a042',
        'duplicates_filtered': 0,
        'far_splits': 0,
        'pred': '447b98c808bfb66c',
        'supersteps': 8,
        'time_us': 36.72164663365726,
        'work_count': 820,
    },
    'gun-nf/rmat-int/single': {
        'atomics': 5989,
        'dist': '7352bb6023d5d4cb',
        'duplicates_filtered': 0,
        'far_splits': 0,
        'pred': 'fa5f7eb630f99b07',
        'supersteps': 8,
        'time_us': 36.69115482022427,
        'work_count': 841,
    },
    'gun-nf/road-float/multi': {
        'atomics': 1614,
        'dist': '58953e2a46d78938',
        'duplicates_filtered': 0,
        'far_splits': 1,
        'pred': '4b32ad27c9b89c77',
        'supersteps': 26,
        'time_us': 113.16350636430553,
        'work_count': 426,
    },
    'gun-nf/road-float/single': {
        'atomics': 1534,
        'dist': '8d0220983a69f9ec',
        'duplicates_filtered': 0,
        'far_splits': 2,
        'pred': '4c36f899e1cd37d6',
        'supersteps': 37,
        'time_us': 159.91993488107215,
        'work_count': 405,
    },
    'gun-nf/road-int/multi': {
        'atomics': 1614,
        'dist': '58953e2a46d78938',
        'duplicates_filtered': 0,
        'far_splits': 1,
        'pred': '4b32ad27c9b89c77',
        'supersteps': 26,
        'time_us': 112.13493493573411,
        'work_count': 426,
    },
    'gun-nf/road-int/single': {
        'atomics': 1534,
        'dist': '8d0220983a69f9ec',
        'duplicates_filtered': 0,
        'far_splits': 2,
        'pred': '4c36f899e1cd37d6',
        'supersteps': 37,
        'time_us': 158.47993488107215,
        'work_count': 405,
    },
    'nf/rmat-int/multi': {
        'atomics': 5907,
        'dist': '4eaf5ac69b99a042',
        'duplicates_filtered': 0,
        'far_splits': 0,
        'pred': '5cb0916e521988a8',
        'supersteps': 8,
        'time_us': 23.145196434875533,
        'work_count': 820,
    },
    'nf/rmat-int/single': {
        'atomics': 5989,
        'dist': '7352bb6023d5d4cb',
        'duplicates_filtered': 0,
        'far_splits': 0,
        'pred': '50e54537c84e9d3c',
        'supersteps': 8,
        'time_us': 23.114704621442545,
        'work_count': 841,
    },
    'nf/road-float/multi': {
        'atomics': 1578,
        'dist': '58953e2a46d78938',
        'duplicates_filtered': 10,
        'far_splits': 1,
        'pred': '4b32ad27c9b89c77',
        'supersteps': 26,
        'time_us': 69.04004321826497,
        'work_count': 416,
    },
    'nf/road-float/single': {
        'atomics': 1513,
        'dist': '8d0220983a69f9ec',
        'duplicates_filtered': 6,
        'far_splits': 2,
        'pred': '4c36f899e1cd37d6',
        'supersteps': 37,
        'time_us': 97.12885271170674,
        'work_count': 399,
    },
    'nf/road-int/multi': {
        'atomics': 1578,
        'dist': '58953e2a46d78938',
        'duplicates_filtered': 10,
        'far_splits': 1,
        'pred': '4b32ad27c9b89c77',
        'supersteps': 26,
        'time_us': 68.01147178969354,
        'work_count': 416,
    },
    'nf/road-int/single': {
        'atomics': 1513,
        'dist': '8d0220983a69f9ec',
        'duplicates_filtered': 6,
        'far_splits': 2,
        'pred': '4c36f899e1cd37d6',
        'supersteps': 37,
        'time_us': 95.68885271170674,
        'work_count': 399,
    },
    'nv/rmat-int/multi': {
        'atomics': 5925,
        'dist': '4eaf5ac69b99a042',
        'pred': '5cb0916e521988a8',
        'supersteps': 8,
        'time_us': 108.54874546732289,
        'work_count': 824,
    },
    'nv/rmat-int/single': {
        'atomics': 6016,
        'dist': '7352bb6023d5d4cb',
        'pred': '50e54537c84e9d3c',
        'supersteps': 8,
        'time_us': 108.5062807566229,
        'work_count': 848,
    },
    'nv/road-float/multi': {
        'atomics': 1804,
        'dist': '58953e2a46d78938',
        'pred': '7c9b9594bcd172e8',
        'supersteps': 22,
        'time_us': 191.79895222304012,
        'work_count': 481,
    },
    'nv/road-float/single': {
        'atomics': 1326,
        'dist': '8d0220983a69f9ec',
        'pred': '4c36f899e1cd37d6',
        'supersteps': 34,
        'time_us': 263.68928979924374,
        'work_count': 358,
    },
    'nv/road-int/multi': {
        'atomics': 1804,
        'dist': '58953e2a46d78938',
        'pred': '7c9b9594bcd172e8',
        'supersteps': 22,
        'time_us': 191.79895222304012,
        'work_count': 481,
    },
    'nv/road-int/single': {
        'atomics': 1326,
        'dist': '8d0220983a69f9ec',
        'pred': '4c36f899e1cd37d6',
        'supersteps': 34,
        'time_us': 263.68928979924374,
        'work_count': 358,
    },
}


@pytest.mark.parametrize("sources", sorted(SOURCES))
@pytest.mark.parametrize("graph", sorted(GRAPHS))
@pytest.mark.parametrize("solver", SOLVERS)
def test_baseline_output_pinned(solver, graph, sources):
    key = f"{solver}/{graph}/{sources}"
    assert _observed(_solve(solver, graph, sources)) == _PINNED[key]
