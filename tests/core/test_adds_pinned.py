"""ADDS outputs pinned bit for bit on small graphs.

``BENCH_pr4.json`` pins only the ``dist_sha256`` of int-weighted cells.
This file also pins the predecessor tree, the simulated time and the
protocol counters (pool high-water, clips, translation-cache hits), on
int and float graphs, under the canonical and a perturbed schedule, for
a multi-source solve, for warm re-solves after an update batch, and for
small blocks that make writers wait on the allocator and write across
block boundaries.  Any change to the relax or the queue that moves
one simulated number fails here.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core import AddsConfig, solve_adds
from repro.dynamic import apply_updates
from repro.graphs import fem_mesh, grid_road, rmat, update_stream


def _sha(arr) -> str:
    return hashlib.sha256(arr.tobytes()).hexdigest()[:16]


def _observed(r) -> dict:
    return {
        "dist": _sha(r.dist),
        "pred": _sha(r.predecessors),
        "time_us": r.time_us,
        "work_count": r.work_count,
        "atomics": r.stats["atomics"],
        "fences": r.stats["fences"],
        "total_pushed": r.stats["total_pushed"],
        "rotations": r.stats["rotations"],
        "pool_high_water": r.stats["pool_high_water"],
        "high_clips": r.stats["high_clips"],
        "low_clips": r.stats["low_clips"],
        "translation_hits": r.stats["translation_hits"],
    }


def _road():
    return grid_road(20, 14, seed=5)


def _small_blocks(pool_blocks: int) -> AddsConfig:
    """Blocks of 32 slots and a short chunk: writes straddle blocks and
    WTB reservations outrun the MTB's allocator."""
    return AddsConfig(
        slots_per_block=32, segment_size=16, pool_blocks=pool_blocks, max_chunk=8
    )


def _warm(topology: bool):
    g = _road()
    p = 0.5 if topology else 0.0
    (batch,) = update_stream(
        g, batches=1, batch_size=40, seed=9, p_insert=p, p_delete=p
    )
    before = solve_adds(g, 0, sources=[0, 77]).dist
    res = apply_updates(g, batch)
    return solve_adds(
        res.graph, 0, sources=[0, 77], warm_from=before, updates=res.deltas
    )


_CASES = {
    "road-int": lambda: solve_adds(_road(), 0),
    "road-int-perturb3": lambda: solve_adds(_road(), 0, perturb_seed=3),
    "road-int-delta": lambda: solve_adds(_road(), 0, delta=40.0),
    "road-float": lambda: solve_adds(_road().as_float(), 0),
    "road-multi-source": lambda: solve_adds(_road(), 40, sources=[0, 40, 211]),
    "rmat-int": lambda: solve_adds(rmat(9, edge_factor=8, seed=7), 0),
    "rmat-float": lambda: solve_adds(rmat(9, edge_factor=8, seed=7).as_float(), 0),
    "mesh-int": lambda: solve_adds(fem_mesh(600, band=16, stride=2, seed=7), 0),
    # 7 capacity waits, 20 multi-block writes, 64 rotations
    "road-small-blocks": lambda: solve_adds(
        grid_road(20, 16, seed=6), 0, config=_small_blocks(256)
    ),
    # 30 capacity waits
    "rmat-small-blocks": lambda: solve_adds(
        rmat(9, edge_factor=8, seed=7), 0, config=_small_blocks(512)
    ),
    # 715 high clips, 37 capacity waits, 1,147 rotations
    "road-int-delta1": lambda: solve_adds(_road(), 0, delta=1.0),
    "warm-weights": lambda: _warm(topology=False),
    "warm-topology": lambda: _warm(topology=True),
}

_PINNED = {
    'mesh-int': {
        'dist': '92a4547b487ef66f',
        'pred': '5a217bce1d44fc69',
        'time_us': 42.65371428571429,
        'work_count': 2522,
        'atomics': 46218,
        'fences': 2591,
        'total_pushed': 3552,
        'rotations': 4,
        'pool_high_water': 6,
        'high_clips': 0,
        'low_clips': 0,
        'translation_hits': 373,
    },
    'rmat-float': {
        'dist': '5d46c11928a2eff3',
        'pred': '1d6a02710c6a1345',
        'time_us': 11.00457142857143,
        'work_count': 1122,
        'atomics': 8395,
        'fences': 537,
        'total_pushed': 1330,
        'rotations': 0,
        'pool_high_water': 2,
        'high_clips': 0,
        'low_clips': 0,
        'translation_hits': 58,
    },
    'rmat-int': {
        'dist': '5d46c11928a2eff3',
        'pred': '1d6a02710c6a1345',
        'time_us': 11.342857142857143,
        'work_count': 1125,
        'atomics': 8351,
        'fences': 521,
        'total_pushed': 1329,
        'rotations': 0,
        'pool_high_water': 2,
        'high_clips': 0,
        'low_clips': 0,
        'translation_hits': 52,
    },
    'rmat-small-blocks': {
        'dist': '5d46c11928a2eff3',
        'pred': '1d6a02710c6a1345',
        'time_us': 16.870857142857144,
        'work_count': 977,
        'atomics': 7872,
        'fences': 648,
        'total_pushed': 1319,
        'rotations': 0,
        'pool_high_water': 19,
        'high_clips': 0,
        'low_clips': 0,
        'translation_hits': 132,
    },
    'road-float': {
        'dist': 'a4742bb906eb5dc9',
        'pred': '294bc4b7e34e0d57',
        'time_us': 33.713142857142856,
        'work_count': 730,
        'atomics': 2979,
        'fences': 1586,
        'total_pushed': 730,
        'rotations': 1,
        'pool_high_water': 2,
        'high_clips': 0,
        'low_clips': 0,
        'translation_hits': 70,
    },
    'road-int': {
        'dist': 'a4742bb906eb5dc9',
        'pred': '294bc4b7e34e0d57',
        'time_us': 31.620571428571427,
        'work_count': 725,
        'atomics': 2962,
        'fences': 1509,
        'total_pushed': 726,
        'rotations': 1,
        'pool_high_water': 2,
        'high_clips': 0,
        'low_clips': 0,
        'translation_hits': 71,
    },
    'road-int-delta': {
        'dist': 'a4742bb906eb5dc9',
        'pred': '294bc4b7e34e0d57',
        'time_us': 58.87085714285714,
        'work_count': 716,
        'atomics': 2791,
        'fences': 3653,
        'total_pushed': 716,
        'rotations': 1147,
        'pool_high_water': 2,
        'high_clips': 715,
        'low_clips': 0,
        'translation_hits': 37,
    },
    'road-int-delta1': {
        'dist': 'a4742bb906eb5dc9',
        'pred': '294bc4b7e34e0d57',
        'time_us': 58.87085714285714,
        'work_count': 716,
        'atomics': 2791,
        'fences': 3653,
        'total_pushed': 716,
        'rotations': 1147,
        'pool_high_water': 2,
        'high_clips': 715,
        'low_clips': 0,
        'translation_hits': 37,
    },
    'road-int-perturb3': {
        'dist': 'a4742bb906eb5dc9',
        'pred': '294bc4b7e34e0d57',
        'time_us': 31.56342857142857,
        'work_count': 724,
        'atomics': 2957,
        'fences': 1568,
        'total_pushed': 725,
        'rotations': 63,
        'pool_high_water': 2,
        'high_clips': 0,
        'low_clips': 0,
        'translation_hits': 71,
    },
    'road-multi-source': {
        'dist': '69af7a6a290e79f7',
        'pred': '664dd6ca0139df27',
        'time_us': 18.472,
        'work_count': 559,
        'atomics': 2256,
        'fences': 868,
        'total_pushed': 567,
        'rotations': 1,
        'pool_high_water': 2,
        'high_clips': 0,
        'low_clips': 0,
        'translation_hits': 42,
    },
    'road-small-blocks': {
        'dist': 'ee1704e604122c1a',
        'pred': 'e1c2856f125064b9',
        'time_us': 31.07314285714286,
        'work_count': 847,
        'atomics': 3754,
        'fences': 1764,
        'total_pushed': 854,
        'rotations': 64,
        'pool_high_water': 6,
        'high_clips': 0,
        'low_clips': 0,
        'translation_hits': 147,
    },
    'warm-topology': {
        'dist': '0a79e740f1b45a94',
        'pred': '79a2d1bf1a7a9af8',
        'time_us': 15.417142857142856,
        'work_count': 460,
        'atomics': 1815,
        'fences': 704,
        'total_pushed': 465,
        'rotations': 0,
        'pool_high_water': 2,
        'high_clips': 0,
        'low_clips': 0,
        'translation_hits': 29,
    },
    'warm-weights': {
        'dist': 'e253925839c3d337',
        'pred': 'cd640588919218a6',
        'time_us': 22.202285714285715,
        'work_count': 520,
        'atomics': 2094,
        'fences': 1087,
        'total_pushed': 520,
        'rotations': 63,
        'pool_high_water': 2,
        'high_clips': 0,
        'low_clips': 0,
        'translation_hits': 40,
    },
}


@pytest.mark.parametrize("name", sorted(_CASES))
def test_adds_output_pinned(name):
    assert _observed(_CASES[name]()) == _PINNED[name]
