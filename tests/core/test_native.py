"""The native kernels (``repro.native``) against the Python path.

The Python path of ``repro.core.wtb`` (items read as lists, the relax
loop, and the publication loop of ``push_groups``, ``reserve`` and
``publish``) is the reference: every solve that runs through
the kernels must equal it bit for bit, and so must the arrays a protocol
checker is shown.  The relax kernel also has to reject index arrays, and
vertex words in the arena, that would send it outside its buffers; the
worker buffers have to keep up with a win log other workers grow; a
publication has to resume after its capacity wait against an arena that
moved; and the loader has to survive two processes compiling into one
cache at once and a host without a C compiler.
``test_protocol_properties.py`` holds the publish call to the Python
publication loop.
"""

from __future__ import annotations

import ctypes
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro import native
from repro.calibration import default_gpu
from repro.check import ProtocolChecker
from repro.core import AddsConfig, solve_adds
from repro.core.bucket_queue import BucketQueue
from repro.core.wtb import _native_steps, _python_batch, _python_steps
from repro.dynamic import apply_updates
from repro.errors import GraphConstructionError, ProtocolError
from repro.gpu.device import Device
from repro.gpu.memory import GlobalPool, SimMemory
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


def _record_runs(monkeypatch):
    """The run counts of the pool reads made after this call."""
    counts = []
    read_runs = BucketQueue.read_runs

    def spy(self, slot, start, end, out):
        counts.append(read_runs(self, slot, start, end, out))
        return counts[-1]

    monkeypatch.setattr(BucketQueue, "read_runs", spy)
    return counts


@needs_kernel
@pytest.mark.parametrize("graph, config", [
    pytest.param(grid_road(12, 10, seed=3), None, id="road-int"),
    pytest.param(rmat(8, edge_factor=8, seed=3).as_float(), None, id="rmat-float"),
    # max_chunk 256 over 32-slot blocks: an assignment reads up to nine
    # runs of the arena
    pytest.param(rmat(9, edge_factor=8, seed=5), AddsConfig(slots_per_block=32),
                 id="rmat-int-multi-block"),
])
def test_checker_sees_the_python_loops_arrays(graph, config, monkeypatch):
    """Every batch's arrays, winners included, and the solve's distances,
    tree and stats equal the Python loop's, which reads the same slots
    as lists."""
    def solve():
        rec = _Recorder()
        r = solve_adds(graph, 0, config=config, checker=rec, perturb_seed=2)
        return _observed(r), rec.batches

    runs = _record_runs(monkeypatch)
    kernel = solve()
    if config is not None:
        assert max(runs) > 2  # assignments read across storage blocks
    monkeypatch.setenv("REPRO_NATIVE", "0")
    reference = solve()
    assert len(kernel[1]) > 10
    assert kernel == reference


@needs_kernel
def test_win_log_grows_under_unpublished_winners(monkeypatch):
    """max_chunk=2 starts the shared win log at 2 slots, and a batch of
    rmat's hubs has hundreds of edges, so the log grows while other
    workers hold winners they have not published yet.  Each worker's
    winner buffer grows to the log before its next relax; a buffer left
    at an older log size would be overrun (the kernel refuses the batch
    instead)."""
    graph = rmat(9, edge_factor=8, seed=7)
    config = AddsConfig(max_chunk=2)
    kernel = _observed(solve_adds(graph, 0, config=config))
    monkeypatch.setenv("REPRO_NATIVE", "0")
    assert kernel == _observed(solve_adds(graph, 0, config=config))


@needs_kernel
def test_publication_resumes_after_the_arena_moves(monkeypatch):
    """32-slot blocks and 4-item chunks keep workers waiting for capacity
    while rmat's hubs push into the same buckets, and the MTB's grants
    grow the pool past INITIAL_BLOCKS, which moves the arena.  A waiting
    worker's publish_groups call resumes against the moved arena (and
    block tables) and gives what the Python loop gives."""
    lib = native.load()
    real = lib.publish_groups
    at_wait, moved = {}, []

    def spy(ctx, buf, qc, nw, *rest):
        arena = native.QueueCtx.from_address(qc).pool
        if nw == native.PUBLISH_RESUME:
            moved.append(at_wait.pop(buf) != arena)
        code = real(ctx, buf, qc, nw, *rest)
        if code == native.PUBLISH_WAIT:
            at_wait[buf] = arena
        return code

    monkeypatch.setattr(lib, "publish_groups", spy)
    graph = rmat(9, edge_factor=8, seed=7)
    config = AddsConfig(max_chunk=4, slots_per_block=32, segment_size=16)
    kernel = _observed(solve_adds(graph, 0, config=config))
    assert any(moved) and not at_wait
    assert kernel[4]["pool_high_water"] > GlobalPool.INITIAL_BLOCKS
    monkeypatch.setenv("REPRO_NATIVE", "0")
    assert kernel == _observed(solve_adds(graph, 0, config=config))


class TestBadIndices:
    """An index array corrupted after construction raises a typed error
    instead of sending the kernel, or the Python loop, outside its
    buffers."""

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
    def call_kernel(ro, col, dist, verts, log_cap=8, win_cap=None):
        """One ``relax_i32`` call on hand-built arrays (unit weights, every
        item pushed at distance 0, the items one run of a hand-built
        arena): ``(code, ctx)``."""
        n, m, k = len(dist), len(col), len(verts)
        win_cap = log_cap if win_cap is None else win_cap
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
        win = np.empty(win_cap, dtype=np.int64)
        buf = native.WinBuf(cap=win_cap, win=win.ctypes.data)
        items = np.zeros((k, 2), dtype=np.int64)  # pushed distance 0.0
        items[:, 0] = verts
        runs = np.array([items.ctypes.data, k], dtype=np.int64)
        code = native.load().relax_i32(
            ctypes.addressof(ctx), ctypes.addressof(buf), 1, runs.ctypes.data
        )
        return code, ctx

    @needs_kernel
    @pytest.mark.parametrize("vertex", [-1, 3])
    def test_work_item_out_of_range(self, vertex):
        dist = np.array([0.0, np.inf, np.inf])
        code, ctx = self.call_kernel([0, 1, 1, 1], [1], dist, [0, vertex])
        assert (code, ctx.bad) == (native.RELAX_BAD_ITEM, 1)
        assert np.isinf(dist[1])

    @needs_kernel
    def test_batch_is_checked_before_its_first_store(self):
        # vertex 0's edge is fine, vertex 2's column is not: nothing lands
        dist = np.array([0.0, np.inf, 0.0])
        code, ctx = self.call_kernel([0, 1, 1, 2], [1, 7], dist, [0, 2])
        assert (code, ctx.bad) == (native.RELAX_BAD_COLUMN, 1)
        assert np.isinf(dist[1])

    @pytest.mark.parametrize("steps", [
        pytest.param(lambda state: _native_steps(state, native.load()),
                     id="native", marks=needs_kernel),
        pytest.param(_python_steps, id="python"),
    ])
    def test_bad_vertex_word_in_a_bucket_slot(self, steps):
        # eight items at distance 0 over two 4-slot blocks; the assigned
        # range [2, 8) reads two runs, the second holding vertex n
        g = grid_road(6, 5, seed=1)
        n = g.num_vertices
        config = AddsConfig(slots_per_block=4, segment_size=4, n_wtbs=1)
        q = BucketQueue(SimMemory(), GlobalPool(words_per_block=4), config,
                        initial_delta=10.0)
        q.ensure_capacity(0, 8)
        q.publish(0, q.reserve(0, 8), list(range(8)), [0.0] * 8)
        q.storage[0].write_range(5, [n], [0.0])
        dist = np.full(n, np.inf)
        dist[:8] = 0.0
        state = SimpleNamespace(graph=g, dist=dist, pred=np.full(n, -1),
                                queue=q, config=config, af_state=[0], checker=None,
                                device=Device(default_gpu()))
        batch = steps(state)[0]
        with pytest.raises(ProtocolError, match=f"work item 3 names vertex {n},"):
            batch(0, 0, 2, 8)
        assert np.isinf(dist[8:]).all() and (state.pred == -1).all()

    def test_python_loop_checks_before_its_first_store(self):
        # the kernel case above, through the Python loop
        ro, col = np.array([0, 1, 1, 2]), np.array([1, 7], dtype=np.int32)
        graph = SimpleNamespace(num_vertices=3, num_edges=2, row_offsets=ro,
                                col_indices=col, weights=np.ones(2, np.int32))
        dist = np.array([0.0, np.inf, 0.0])
        state = SimpleNamespace(graph=graph, dist=dist, checker=None,
                                pred=np.full(3, -1, dtype=np.int64))
        relax_batch = _python_batch(state)
        with pytest.raises(GraphConstructionError, match=r"col_indices\[1\]"):
            relax_batch([0, 2], [0.0, 0.0])
        with pytest.raises(ProtocolError, match="work item 1 names vertex 3"):
            relax_batch([0, 3], [0.0, 0.0])
        assert np.isinf(dist[1]) and (state.pred == -1).all()

    @needs_kernel
    def test_full_log_asks_for_room_before_storing(self):
        dist = np.array([0.0, np.inf, np.inf])
        code, ctx = self.call_kernel([0, 2, 2, 2], [1, 2], dist, [0], log_cap=1)
        assert (code, ctx.edges) == (native.RELAX_LOG_FULL, 2)
        assert np.isinf(dist[1:]).all()

    @needs_kernel
    def test_short_winner_buffer_is_refused_before_storing(self):
        # the log has room, the worker's buffer does not
        dist = np.array([0.0, np.inf, np.inf])
        code, ctx = self.call_kernel([0, 2, 2, 2], [1, 2], dist, [0], win_cap=1)
        assert (code, ctx.edges) == (native.RELAX_WIN_SHORT, 2)
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
