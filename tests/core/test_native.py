"""The native relax kernel (``repro.native``) against the Python loop.

The Python loop of ``repro.core.wtb`` is the reference: every solve that
runs through the kernel must equal it bit for bit, and so must the
arrays a protocol checker is shown.  The kernel also has to reject index
arrays that would send it outside its buffers, and the loader has to
survive two processes compiling into one cache at once and a host
without a C compiler.
"""

from __future__ import annotations

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import native
from repro.check import ProtocolChecker
from repro.core import AddsConfig, solve_adds
from repro.dynamic import apply_updates
from repro.errors import GraphConstructionError
from repro.graphs import fem_mesh, grid_road, rmat, update_stream

needs_kernel = pytest.mark.skipif(
    native.load() is None, reason="native relax kernel unavailable"
)


def _patched_road():
    """A road graph after a weight-only batch patched its weights in place."""
    g = grid_road(16, 12, seed=7)
    (batch,) = update_stream(g, batches=1, batch_size=30, seed=4,
                             p_insert=0.0, p_delete=0.0)
    res = apply_updates(g, batch)
    assert res.graph is g  # the same buffers, patched
    return g


_SOLVES = {
    "road-int": lambda: solve_adds(grid_road(16, 12, seed=7), 0),
    "road-float": lambda: solve_adds(grid_road(16, 12, seed=7).as_float(), 3),
    "road-perturbed": lambda: solve_adds(grid_road(16, 12, seed=7), 0, perturb_seed=5),
    "rmat-int": lambda: solve_adds(rmat(9, edge_factor=8, seed=7), 0),
    "rmat-float-multi": lambda: solve_adds(
        rmat(9, edge_factor=8, seed=7).as_float(), 0, sources=[0, 9, 31]
    ),
    "mesh-small-blocks": lambda: solve_adds(
        fem_mesh(600, band=16, stride=2, seed=7), 0,
        config=AddsConfig(slots_per_block=32, segment_size=16, max_chunk=8),
    ),
    "road-patched": lambda: solve_adds(_patched_road(), 0),
}


def _observed(r):
    stats = dict(r.stats)
    return (r.dist.tobytes(), r.predecessors.tobytes(), r.time_us,
            r.work_count, stats)


@needs_kernel
@pytest.mark.parametrize("case", sorted(_SOLVES))
def test_kernel_matches_python_loop(case, monkeypatch):
    kernel = _observed(_SOLVES[case]())
    monkeypatch.setenv("REPRO_NATIVE", "0")
    assert kernel == _observed(_SOLVES[case]())


class _Recorder(ProtocolChecker):
    """Keeps a copy of every batch ``on_atomic_min_batch`` is shown."""

    def __init__(self):
        super().__init__()
        self.batches = []

    def on_atomic_min_batch(self, arr, indices, values, before, winners):
        self.batches.append(tuple(
            (a.dtype.str, a.tobytes()) for a in (indices, values, before, winners)
        ))
        super().on_atomic_min_batch(arr, indices, values, before, winners)


@needs_kernel
@pytest.mark.parametrize("graph", [
    grid_road(12, 10, seed=3), rmat(8, edge_factor=8, seed=3).as_float(),
], ids=["road-int", "rmat-float"])
def test_checker_sees_the_python_loops_arrays(graph, monkeypatch):
    def batches():
        rec = _Recorder()
        solve_adds(graph, 0, checker=rec, perturb_seed=2)
        return rec.batches

    kernel = batches()
    monkeypatch.setenv("REPRO_NATIVE", "0")
    reference = batches()
    assert len(kernel) > 10
    assert kernel == reference


@needs_kernel
class TestBadIndices:
    """An index array corrupted after construction raises a typed error
    instead of sending the kernel outside its buffers."""

    @pytest.mark.parametrize("value", ["n", -1])
    def test_column_out_of_range(self, value):
        g = grid_road(10, 8, seed=1)
        n = g.num_vertices
        g.col_indices[g.row_offsets[0]] = n if value == "n" else value
        with pytest.raises(GraphConstructionError, match=r"col_indices\[0\]"):
            solve_adds(g, 0)

    def test_row_past_the_edges(self):
        g = grid_road(10, 8, seed=1)
        g.row_offsets[1] = g.num_edges + 1
        with pytest.raises(GraphConstructionError, match="row_offsets of vertex 0"):
            solve_adds(g, 0)

    @staticmethod
    def call_kernel(ro, col, dist, verts, log_cap=8):
        """One ``relax_i32`` call on hand-built arrays (unit weights, every
        item pushed at distance 0): ``(code, ctx)``."""
        n, m, k = len(dist), len(col), len(verts)
        arrays = {
            "ro": np.array(ro, dtype=np.int64),
            "col": np.array(col, dtype=np.int32),
            "w": np.ones(m, dtype=np.int32),
            "dist": dist,
            "pred": np.full(n, -1, dtype=np.int64),
            "live_v": np.empty(k, dtype=np.int64),
            "live_d": np.empty(k),
            "log_u": np.empty(log_cap, dtype=np.int64),
            "log_d": np.empty(log_cap),
            "log_pos": np.empty(log_cap, dtype=np.int64),
        }
        ctx = native.RelaxCtx(n=n, m=m, log_cap=log_cap, **{
            name: arr.ctypes.data for name, arr in arrays.items()
        })
        verts = np.array(verts, dtype=np.int64)
        pushed = np.zeros(k)
        code = native.load().relax_i32(
            ctypes.addressof(ctx), k, verts.ctypes.data, pushed.ctypes.data
        )
        return code, ctx

    @pytest.mark.parametrize("vertex", [-1, 3])
    def test_work_item_out_of_range(self, vertex):
        dist = np.array([0.0, np.inf, np.inf])
        code, ctx = self.call_kernel([0, 1, 1, 1], [1], dist, [0, vertex])
        assert (code, ctx.bad) == (native.RELAX_BAD_ITEM, 1)
        assert np.isinf(dist[1])

    def test_batch_is_checked_before_its_first_store(self):
        # vertex 0's edge is fine, vertex 2's column is not: nothing lands
        dist = np.array([0.0, np.inf, 0.0])
        code, ctx = self.call_kernel([0, 1, 1, 2], [1, 7], dist, [0, 2])
        assert (code, ctx.bad) == (native.RELAX_BAD_COLUMN, 1)
        assert np.isinf(dist[1])

    def test_full_log_asks_for_room_before_storing(self):
        dist = np.array([0.0, np.inf, np.inf])
        code, ctx = self.call_kernel([0, 2, 2, 2], [1, 2], dist, [0], log_cap=1)
        assert (code, ctx.edges) == (native.RELAX_LOG_FULL, 2)
        assert np.isinf(dist[1:]).all()


def _python(code: str, **env) -> subprocess.Popen:
    src = str(Path(repro.__file__).resolve().parents[1])
    return subprocess.Popen(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src, **env},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


class TestLoader:
    def test_disabled_by_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        assert native.load() is None

    @needs_kernel
    def test_two_processes_compile_into_one_empty_cache(self, tmp_path):
        code = "from repro import native; print(native.load() is not None)"
        procs = [
            _python(code, XDG_CACHE_HOME=str(tmp_path), REPRO_NATIVE="1")
            for _ in range(2)
        ]
        outs = [p.communicate(timeout=120) for p in procs]
        assert [(p.returncode, out.strip()) for p, (out, _) in zip(procs, outs)] \
            == [(0, "True")] * 2, outs
        # one library, and no compiler output left behind
        assert [f.suffix for f in (tmp_path / "repro").iterdir()] == [".so"]

    def test_no_compiler_falls_back_to_python(self, tmp_path):
        code = (
            "from repro import native, grid_road, sssp\n"
            "assert native.load() is None\n"
            "print(sssp(grid_road(8, 6, seed=1), 0).work_count)\n"
        )
        proc = _python(code, PATH=str(tmp_path), XDG_CACHE_HOME=str(tmp_path),
                       TMPDIR=str(tmp_path), REPRO_NATIVE="1")
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        assert int(out) > 0
