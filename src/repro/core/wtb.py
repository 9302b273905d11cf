"""§5.1: the worker thread block (WTB) program.

Each WTB loops forever:

1. spin on its **assignment flag** (AF) in scratchpad — "Each idle WTB
   polls its respective AF ... and thus receives work from the MTB
   without contention with other WTBs";
2. on assignment ``(bucket, start, end)``: read the work items, drop
   stale ones (their vertex has improved since the push), expand the rest
   and atomically relax their out-edges on the shared distance array;
3. push every *winning* relaxation as a new work item, in one pass:
   :meth:`~repro.core.bucket_queue.BucketQueue.push_groups` bands the
   batch under the current Δ and splits it by bucket, then each touched
   bucket gets one atomic reservation (``resv_ptr``), write, fence and
   WCC bump — the multi-writer half of §5.2.  If the reservation outruns
   the allocated blocks the WTB waits for the MTB's allocator to catch up
   (§5.3: all memory management is the MTB's job);
4. report completion: bump the source bucket's CWC by the full assignment
   size (stale items included — they were assigned work), then clear the
   AF.

The relaxation is one batch priced by the cost model; its memory effects
land when the batch *finishes*, so concurrent WTBs genuinely race on the
distance array and redundant work arises exactly as it does on hardware.

Step 2 is :func:`make_relax`: one closure per solve, shared by every
worker.  It runs each batch in one call into the C kernel of
:mod:`repro.native` (``relax.c``): the stale check, the relax and the
winner list, over the graph's CSR arrays and ``dist``/``pred`` in place.
Where no C compiler is found, or ``REPRO_NATIVE=0`` is set, it runs the
same batch as one loop over Python scalars through zero-copy
memoryviews; that loop is the reference the kernel is tested against,
bit for bit.  Each worker's step 2 runs alone in its own event: the
single-reader MTB hands out assignments one at a time, so too few
workers are ready at one timestamp for fusing their relaxations to pay
(see ``docs/simulator.md``).
"""

from __future__ import annotations

import ctypes
import struct

import numpy as np

from repro import native
from repro.errors import GraphConstructionError, ProtocolError

__all__ = ["wtb_program", "make_relax", "AF_IDLE", "AF_ASSIGNED", "AF_STOP"]

AF_IDLE = 0
AF_ASSIGNED = 1
AF_STOP = 2


def make_relax(state):
    """The WTB relaxation phase (step 2) as one per-solve closure.

    ``relax(wid)`` decodes worker ``wid``'s AF, reads the assigned items,
    drops stale ones, relaxes the live vertices' out-edges and prices the
    batch.  It returns the plain tuple
    ``(slot, k, epoch, n_live, edges, latency, nbytes, new_v, nw)`` where
    the list ``new_v`` holds the ``nw`` winning destinations.

    The edges relax in batch order, each as ``atomicMin`` would: a
    candidate below the stored distance stores itself and its source as
    the predecessor.  So the last store at an index is the first batch
    entry holding the batch minimum, and ``new_v`` lists the improved
    destinations in the order of those entries — the winner semantics of
    :meth:`~repro.gpu.memory.SimMemory.atomic_min_batch`, which the BSP
    baselines relax through
    (:func:`~repro.baselines.common.make_frontier_relax`).  With a
    protocol checker attached, each batch is reported to its
    ``on_atomic_min_batch`` from here; ``SimMemory`` takes no checker.

    The batch runs in the native kernel of :mod:`repro.native` when it
    loads, else in the Python loop of :func:`_python_batch`; both give
    bit-identical results.
    """
    dev = state.device
    cost = dev.cost
    mem_stats = dev.mem.stats
    q = state.queue
    graph = state.graph
    float_weights = state.float_weights
    avg_deg = max(graph.average_degree(), 1.0)
    af_slot = state.af_slot
    af_start = state.af_start
    af_end = state.af_end
    af_epoch = state.af_epoch
    read_items = q.read_items
    wtb_batch_latency = cost.wtb_batch_latency
    wtb_batch_bytes = cost.wtb_batch_bytes
    # Batch pricing is a pure function of the edge count once the solve
    # fixes float_weights and avg_deg, and edge counts repeat heavily
    # (chunk sizes × a bounded degree mix), so memoize per solve.
    price_memo: dict = {}
    # dynamic protocol checker (repro.check), or None
    checker = state.checker
    lib = native.load()
    relax_batch = (
        _python_batch(state) if lib is None else _native_batch(state, lib)
    )

    def relax(wid: int):
        slot = af_slot[wid]
        start = af_start[wid]
        end = af_end[wid]
        epoch = af_epoch[wid]
        k = end - start
        if checker is not None:
            # the claim check: what this WTB decoded from its AF must be
            # exactly what the MTB assigned, in the epoch it was made
            checker.on_claim(wid, slot, start, end, epoch)
        verts, pushed = read_items(slot, start, end)
        # Distance updates commit as the batch runs (hardware atomics are
        # visible to concurrently running blocks), so they are applied at
        # dispatch; the *work items* this batch spawns only become visible
        # when the push instructions + WCC increments execute, i.e. after
        # the batch's duration (see wtb_program).
        n_live, edges, new_v = relax_batch(verts, pushed)
        mem_stats.atomics += edges  # one atomicMin per edge
        state.work_count += n_live
        priced = price_memo.get(edges)
        if priced is None:
            priced = price_memo[edges] = (
                wtb_batch_latency(edges, float_weights=float_weights),
                wtb_batch_bytes(edges, avg_deg),
            )
        latency, nbytes = priced
        return (slot, k, epoch, n_live, edges, latency, nbytes, new_v, len(new_v))

    return relax


def _python_batch(state):
    """The relax of one batch as a loop over Python scalars:
    ``relax_batch(verts, pushed) -> (n_live, edges, new_v)``.

    It reads the graph's CSR arrays and reads and writes ``dist``/``pred``
    through zero-copy memoryviews.  Indexing yields Python ints and floats
    and sees the live buffers, so an in-place weight patch is relaxed with
    its new value.  int32/float32 → Python int/float is exact, so the
    float64 arithmetic equals NumPy's on the widened arrays.
    """
    graph = state.graph
    ro = memoryview(graph.row_offsets)
    col = memoryview(graph.col_indices)
    wts = memoryview(graph.weights)
    dist = memoryview(state.dist)
    pred = memoryview(state.pred)
    checker = state.checker

    def relax_batch(verts, pushed):
        # stale check: the pushed distance is current iff the vertex has
        # not improved since (distances only decrease).  It also reads
        # every live source's distance before any edge of the batch
        # relaxes, as the hardware batch does.
        live = []
        for v, d in zip(verts, pushed):
            dv = dist[v]
            if d <= dv:
                live.append((v, dv))
        if checker is not None:
            batch = _batch_arrays(live, ro, col, wts, state.dist)
        won: dict = {}  # winning destination -> its entry's batch position
        edges = 0
        for v, dv in live:
            s = ro[v]
            e = ro[v + 1]
            pos0 = edges - s
            edges += e - s
            for i in range(s, e):
                u = col[i]
                c = dv + wts[i]
                if c < dist[u]:
                    dist[u] = c
                    pred[u] = v
                    if u in won:  # re-insert: order by winning entry
                        del won[u]
                    won[u] = pos0 + i
        if checker is not None and edges:
            winners = np.zeros(edges, dtype=bool)
            winners[list(won.values())] = True
            checker.on_atomic_min_batch(state.dist, *batch, winners)
        return len(live), edges, list(won)

    return relax_batch


def _native_batch(state, lib):
    """:func:`_python_batch` as one call into the ``relax.c`` kernel.

    The kernel gets raw addresses, so this closure holds every array it
    points into — the graph's CSR arrays (the live weight buffer, so
    in-place patches are seen), ``dist``, ``pred`` and the scratch — for
    as long as the solve can call it.  A batch's items are packed and
    passed on each call.  The win log starts at ``max_chunk`` slots and
    grows to the largest batch's edge count.
    """
    graph = state.graph
    n = graph.num_vertices
    m = graph.num_edges
    ro = graph.row_offsets
    col = graph.col_indices
    wts = graph.weights
    dist = state.dist
    pred = state.pred
    for arr, size, dtype in (
        (ro, n + 1, np.int64), (col, m, np.int32), (wts, m, wts.dtype),
        (dist, n, np.float64), (pred, n, np.int64),
    ):
        # the kernel indexes raw memory: hold it to the layout it assumes
        if arr.size != size or arr.dtype != dtype or not arr.flags.c_contiguous:
            return _python_batch(state)
    if not (dist.flags.writeable and pred.flags.writeable):
        return _python_batch(state)
    ctx = native.RelaxCtx(n=n, m=m)
    pinned = {}  # every array whose address ctx holds

    def point(**arrays):
        pinned.update(arrays)
        for name, arr in arrays.items():
            setattr(ctx, name, arr.ctypes.data)

    def grow_log(slots):
        ctx.log_cap = slots
        point(log_u=np.empty(slots, dtype=np.int64),
              log_d=np.empty(slots, dtype=np.float64),
              log_pos=np.empty(slots, dtype=np.int64))

    cap = state.config.max_chunk  # the MTB's largest assignment
    point(ro=ro, col=col, w=wts, dist=dist, pred=pred,
          live_v=np.empty(cap, dtype=np.int64), live_d=np.empty(cap, dtype=np.float64))
    grow_log(cap)
    ctx_p = ctypes.addressof(ctx)
    kernel = lib.relax_i32 if graph.is_integer_weighted else lib.relax_f32
    packers: dict = {}
    checker = state.checker
    views = (memoryview(ro), memoryview(col), memoryview(wts))

    def relax_batch(verts, pushed):
        k = len(verts)
        pack = packers.get(k)
        if pack is None:
            if k > cap:
                raise ProtocolError(
                    f"an assignment of {k} items exceeds max_chunk {cap}"
                )
            pack = packers[k] = (
                struct.Struct(f"{k}q").pack, struct.Struct(f"{k}d").pack
            )
        if checker is not None:
            before = dist.copy()  # the batch's loads precede its stores
        items = (pack[0](*verts), pack[1](*pushed))
        nw = kernel(ctx_p, k, *items)
        if nw == native.RELAX_LOG_FULL:  # nothing stored yet: grow, retry
            grow_log(max(ctx.edges, 2 * ctx.log_cap))
            nw = kernel(ctx_p, k, *items)
        if nw < 0:
            _raise_bad_index(nw, ctx.bad, verts, n)
        n_live = ctx.n_live
        edges = ctx.edges
        if checker is not None and edges:
            live = list(zip(pinned["live_v"][:n_live].tolist(),
                            pinned["live_d"][:n_live].tolist()))
            batch = _batch_arrays(live, *views, before)
            winners = np.zeros(edges, dtype=bool)
            winners[pinned["log_pos"][:nw]] = True
            checker.on_atomic_min_batch(dist, *batch, winners)
        return n_live, edges, pinned["log_u"][:nw].tolist()

    return relax_batch


def _batch_arrays(live, ro, col, wts, dist_arr):
    """A relax batch as the arrays ``atomic_min_batch`` reports to the
    checker: ``(indices, values, before)`` over its edges in batch order,
    ``before`` read from ``dist_arr`` as it was ahead of any of the
    batch's stores."""
    indices = np.array(
        [col[i] for v, _ in live for i in range(ro[v], ro[v + 1])],
        dtype=np.int64,
    )
    values = np.array(
        [dv + wts[i] for v, dv in live for i in range(ro[v], ro[v + 1])],
        dtype=np.float64,
    )
    return indices, values, dist_arr[indices]


def _raise_bad_index(code, bad, verts, n):
    if code == native.RELAX_BAD_ITEM:
        raise ProtocolError(
            f"work item {bad} names vertex {verts[bad]}, outside [0, {n})"
        )
    what = {
        native.RELAX_BAD_OFFSETS: f"row_offsets of vertex {bad}",
        native.RELAX_BAD_COLUMN: f"col_indices[{bad}]",
    }[code]
    raise GraphConstructionError(
        f"{what} out of range: the CSR arrays changed after construction"
    )


def wtb_program(state, wid: int, relax):
    """Generator program for worker ``wid`` over the shared solver state;
    ``relax`` is the solve's :func:`make_relax` closure."""
    dev = state.device
    q = state.queue
    dist = memoryview(state.dist)
    af_state = state.af_state
    tracer = dev.tracer
    track = f"WTB{wid}"
    assigned = lambda: af_state[wid] != AF_IDLE  # noqa: E731 - hot predicate
    # Wake channel for the assignment flag: the MTB notifies ("af", wid)
    # when it writes this worker's AF, so the engine re-evaluates the
    # predicate O(assignments) times instead of on every event.
    af_key = ("af", wid)
    cap_keys = q.cap_keys
    # Hoisted hot-path lookups: this loop body runs once per assignment,
    # tens of thousands of times per solve.
    trace_on = tracer.enabled
    push_groups = q.push_groups
    reserve = q.reserve
    storage = q.storage
    publish = q.publish
    complete = q.complete
    atomic_cycles = dev.cost.atomic_cycles
    af_edges = state.af_edges

    while True:
        yield ("wait", assigned, af_key)
        if af_state[wid] == AF_STOP:
            return

        slot, k, epoch, n_live, edges, latency, nbytes, new_v, nw = relax(wid)

        if trace_on:
            dev.annotate(
                "relax_batch", bucket=slot, items=k,
                live=n_live, stale=k - n_live, wins=nw,
            )
        yield ("relax", latency, edges, nbytes)

        # ---- publication at batch completion ---------------------------------
        if nw:
            # one pass from winners to per-bucket groups, at the winners'
            # distances as of now: other WTBs' batches may have improved
            # them since this one relaxed
            push_cost = 0.0
            for s, vs, ds in push_groups(new_v, dist):
                kk = len(vs)
                idx0 = reserve(s, kk)
                need = idx0 + kk
                st = storage[s]
                if st.capacity < need:
                    # block not allocated yet: wait for the MTB
                    # (bind loop variables via defaults)
                    if trace_on:
                        tracer.instant(
                            track, "alloc_wait", dev.now_us, cat="alloc",
                            bucket=s, need=need, capacity=st.capacity,
                        )
                    yield (
                        "wait",
                        lambda st=st, need=need: st.capacity >= need,
                        cap_keys[s],
                    )
                segs = publish(s, idx0, vs, ds)
                push_cost += atomic_cycles * (1 + segs) + 4.0 * kk
            yield ("busy", push_cost)

        complete(slot, k, epoch)
        state.outstanding_edges -= af_edges[wid]
        af_edges[wid] = 0.0
        af_state[wid] = AF_IDLE
        if trace_on:
            tracer.instant(
                track, "wtb_complete", dev.now_us, cat="wtb",
                bucket=slot, items=k,
            )
