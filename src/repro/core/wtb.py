"""§5.1: the worker thread block (WTB) program.

Each WTB loops forever:

1. spin on its **assignment flag** (AF) in scratchpad — "Each idle WTB
   polls its respective AF ... and thus receives work from the MTB
   without contention with other WTBs";
2. on assignment ``(bucket, start, end)``: read the work items, drop
   stale ones (their vertex has improved since the push), expand the rest
   and atomically relax their out-edges on the shared distance array;
3. push every *winning* relaxation as a new work item, in one pass:
   the batch's winners are banded under the current Δ and split by
   bucket, then each touched bucket gets one atomic reservation
   (``resv_ptr``), write, fence and WCC bump — the multi-writer half of
   §5.2.  If the reservation outruns
   the allocated blocks the WTB waits for the MTB's allocator to catch up
   (§5.3: all memory management is the MTB's job);
4. report completion: bump the source bucket's CWC by the full assignment
   size (stale items included — they were assigned work), then clear the
   AF.

The relaxation is one batch priced by the cost model; its memory effects
land when the batch *finishes*, so concurrent WTBs genuinely race on the
distance array and redundant work arises exactly as it does on hardware.

Steps 2 and 3 are the two closures of :func:`make_relax`, made once per
solve and shared by every worker.  Natively (``relax.c`` of
:mod:`repro.native`), a worker's items and winners never become Python
lists: the relax kernel reads the assignment straight out of the bucket
arena as ``(address, count)`` runs and writes the winners into a buffer
of that worker's own, and at publication one ``publish_groups`` call
bands, clips and splits them into per-bucket groups there and runs each
group's reserve → write → fence → WCC sequence on the queue's own
metadata.  It stops at a reservation not yet backed by a block; the
worker waits for capacity and calls again to resume.  Python adds each
call's counts to the queue's and the memory stats before its next
yield, so the MTB sees every count when it would on the Python path.
Where no C compiler is found, or ``REPRO_NATIVE=0`` is set, the items
come as lists from
:meth:`~repro.core.bucket_queue.BucketQueue.read_items`, the batch runs
as one loop over Python scalars through zero-copy memoryviews, and the
winners are published by the Python loop:
:meth:`~repro.core.bucket_queue.BucketQueue.push_groups` splits them and
each group takes ``reserve``, the capacity wait and ``publish``.  That
loop is also the publication path of every solve with a protocol checker
or an enabled tracer, whose hooks, injected faults and trace events live
on ``reserve`` and ``publish``; it is the reference the kernels are
tested against, bit for bit.  Each worker's step 2 runs alone in its own
event: the single-reader MTB hands out assignments one at a time, so
too few workers are ready at one timestamp for fusing their relaxations
to pay (see ``docs/simulator.md``).
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro import native
from repro.errors import GraphConstructionError, ProtocolError

__all__ = ["wtb_program", "make_relax", "AF_IDLE", "AF_ASSIGNED", "AF_STOP"]

AF_IDLE = 0
AF_ASSIGNED = 1
AF_STOP = 2


def make_relax(state):
    """The WTB relaxation phase (step 2) and its publication (step 3), as
    two per-solve closures ``(relax, publish)`` shared by every worker.

    ``relax(wid)`` decodes worker ``wid``'s AF, reads the assigned items,
    drops stale ones, relaxes the live vertices' out-edges and prices the
    batch.  It returns the plain tuple
    ``(slot, k, epoch, n_live, edges, latency, nbytes, nw)``, ``nw`` the
    number of winning destinations, which the worker keeps until it
    publishes them.  ``publish(wid, nw)`` is a generator for that
    publication: it bands the winners at their distances as of its start
    under the current Δ, splits them into groups in ascending physical
    slot, and pushes each group (reserve, write, fence, WCC).  It yields
    the worker's ``("wait", ...)`` for a reservation not yet backed by a
    block and returns the batch's push cost in cycles.

    The edges relax in batch order, each as ``atomicMin`` would: a
    candidate below the stored distance stores itself and its source as
    the predecessor.  So the last store at an index is the first batch
    entry holding the batch minimum, and the winners are the improved
    destinations in the order of those entries — the winner semantics of
    :meth:`~repro.gpu.memory.SimMemory.atomic_min_batch`, which the BSP
    baselines relax through
    (:func:`~repro.baselines.common.make_frontier_relax`).  With a
    protocol checker attached, each batch is reported to its
    ``on_atomic_min_batch`` from here; ``SimMemory`` takes no checker.

    Both run in the native kernels of :mod:`repro.native` when they load
    (:func:`_native_steps`), else as :meth:`BucketQueue.read_items
    <repro.core.bucket_queue.BucketQueue.read_items>` and the Python
    loop of :func:`_python_batch`.  Publication is native too, with one
    exception: a solve with a checker attached or a tracer enabled
    publishes through the Python loop of :func:`_python_publish`
    whichever relax it runs, because the checker's hooks, the injected
    faults and the ``bucket_push``/``alloc_wait`` events live on
    ``reserve`` and ``publish``.  Every combination gives bit-identical
    results.
    """
    dev = state.device
    cost = dev.cost
    mem_stats = dev.mem.stats
    graph = state.graph
    float_weights = state.float_weights
    avg_deg = max(graph.average_degree(), 1.0)
    af_slot = state.af_slot
    af_start = state.af_start
    af_end = state.af_end
    af_epoch = state.af_epoch
    wtb_batch_latency = cost.wtb_batch_latency
    wtb_batch_bytes = cost.wtb_batch_bytes
    # Batch pricing is a pure function of the edge count once the solve
    # fixes float_weights and avg_deg, and edge counts repeat heavily
    # (chunk sizes × a bounded degree mix), so memoize per solve.
    price_memo: dict = {}
    # dynamic protocol checker (repro.check), or None
    checker = state.checker
    lib = native.load()
    steps = None if lib is None else _native_steps(state, lib)
    if steps is None:
        batch, winners = _python_steps(state)
        publish = None
    else:
        batch, winners, publish = steps
    # The one switch to the Python publication loop: no kernel, or a
    # checker or tracer, whose hooks live on reserve and publish.
    if publish is None or checker is not None or dev.tracer.enabled:
        publish = _python_publish(state, winners)

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
        # Distance updates commit as the batch runs (hardware atomics are
        # visible to concurrently running blocks), so they are applied at
        # dispatch; the *work items* this batch spawns only become visible
        # when the push instructions + WCC increments execute, i.e. after
        # the batch's duration (see wtb_program).
        n_live, edges, nw = batch(wid, slot, start, end)
        mem_stats.atomics += edges  # one atomicMin per edge
        state.work_count += n_live
        priced = price_memo.get(edges)
        if priced is None:
            priced = price_memo[edges] = (
                wtb_batch_latency(edges, float_weights=float_weights),
                wtb_batch_bytes(edges, avg_deg),
            )
        latency, nbytes = priced
        return (slot, k, epoch, n_live, edges, latency, nbytes, nw)

    return relax, publish


def _python_steps(state):
    """The reference ``(batch, winners)`` of :func:`make_relax`: the items
    read as lists, :func:`_python_batch`, and each worker's winners kept
    as a list until ``winners(wid, nw)`` hands them to
    :func:`_python_publish`."""
    read_items = state.queue.read_items
    relax_batch = _python_batch(state)
    pending = [None] * len(state.af_state)  # each worker's winners

    def batch(wid, slot, start, end):
        n_live, edges, pending[wid] = relax_batch(*read_items(slot, start, end))
        return n_live, edges, len(pending[wid])

    def winners(wid, nw):
        return pending[wid]

    return batch, winners


def _python_publish(state, winners):
    """The reference ``publish`` of :func:`make_relax`: the worker's
    winners (``winners(wid, nw)``, a list) split by
    :meth:`BucketQueue.push_groups
    <repro.core.bucket_queue.BucketQueue.push_groups>`, then per group
    ``reserve``, the capacity wait and ``publish``."""
    dev = state.device
    q = state.queue
    tracer = dev.tracer
    trace_on = tracer.enabled
    push_groups = q.push_groups
    reserve = q.reserve
    storage = q.storage
    q_publish = q.publish
    cap_keys = q.cap_keys
    atomic_cycles = dev.cost.atomic_cycles
    dist = memoryview(state.dist)

    def publish(wid, nw):
        push_cost = 0.0
        for s, vs, ds in push_groups(winners(wid, nw), dist):
            kk = len(vs)
            idx0 = reserve(s, kk)
            need = idx0 + kk
            st = storage[s]
            if st.capacity < need:
                # block not allocated yet: wait for the MTB
                if trace_on:
                    tracer.instant(
                        f"WTB{wid}", "alloc_wait", dev.now_us, cat="alloc",
                        bucket=s, need=need, capacity=st.capacity,
                    )
                yield (
                    "wait",
                    lambda st=st, need=need: st.capacity >= need,
                    cap_keys[s],
                )
            segs = q_publish(s, idx0, vs, ds)
            push_cost += atomic_cycles * (1 + segs) + 4.0 * kk
        return push_cost

    return publish


def _python_batch(state):
    """The relax of one batch as a loop over Python scalars:
    ``relax_batch(verts, pushed) -> (n_live, edges, new_v)``.

    It reads the graph's CSR arrays and reads and writes ``dist``/``pred``
    through zero-copy memoryviews.  Indexing yields Python ints and floats
    and sees the live buffers, so an in-place weight patch is relaxed with
    its new value.  int32/float32 → Python int/float is exact, so the
    float64 arithmetic equals NumPy's on the widened arrays.  Like the
    kernel, it checks every index a batch uses before its first store.
    """
    graph = state.graph
    n = graph.num_vertices
    m = graph.num_edges
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
        for j, (v, d) in enumerate(zip(verts, pushed)):
            if not 0 <= v < n:
                _raise_bad_index(native.RELAX_BAD_ITEM, j, verts, n)
            dv = dist[v]
            if d <= dv:
                live.append((v, dv))
        for v, _ in live:
            if not 0 <= ro[v] <= ro[v + 1] <= m:
                _raise_bad_index(native.RELAX_BAD_OFFSETS, v, verts, n)
            for i in range(ro[v], ro[v + 1]):
                if not 0 <= col[i] < n:
                    _raise_bad_index(native.RELAX_BAD_COLUMN, i, verts, n)
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


def _native_steps(state, lib):
    """:func:`_python_steps` and the publication as calls into the
    ``relax.c`` kernels: ``(batch, winners, publish)``, or ``None`` when
    the arrays do not have the layout the kernels assume.

    The kernels get raw addresses, so this closure holds every array they
    point into — the graph's CSR arrays (the live weight buffer, so
    in-place patches are seen), ``dist``, ``pred`` and the scratch — for
    as long as the solve can call them.  ``batch`` hands the relax kernel
    its assignment as ``(address, count)`` runs of the pool's arena
    (:meth:`BucketQueue.read_runs
    <repro.core.bucket_queue.BucketQueue.read_runs>`), never as lists.
    The win log is shared, as a batch's relax runs in one call; it starts
    at ``max_chunk`` slots and grows to the largest batch's edge count.
    The winners go into the worker's own :class:`~repro.native.WinBuf`,
    where they wait across the relax and capacity-wait yields while other
    workers' batches run, and where ``publish`` bands, splits and pushes
    them through ``publish_groups`` and the queue's
    :class:`~repro.native.QueueCtx`; ``winners`` lists them for the
    Python publication instead.  A batch may write as many winners as it
    has edges, so before each relax call the worker's buffers grow to the
    win log's current size: another worker may have grown the log since.
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
            return None
    if not (dist.flags.writeable and pred.flags.writeable):
        return None
    q = state.queue
    nb = q.n_buckets
    ctx = native.RelaxCtx(n=n, m=m)
    pinned = {}  # every array whose address ctx holds
    log_cap = 0

    def point(**arrays):
        pinned.update(arrays)
        for name, arr in arrays.items():
            setattr(ctx, name, arr.ctypes.data)

    def grow_log(slots):
        nonlocal log_cap
        ctx.log_cap = log_cap = slots
        point(log_u=np.empty(slots, dtype=np.int64),
              log_d=np.empty(slots, dtype=np.float64),
              log_pos=np.empty(slots, dtype=np.int64))

    n_wtbs = len(state.af_state)
    bufs = [native.WinBuf() for _ in range(n_wtbs)]
    buf_addr = [ctypes.addressof(b) for b in bufs]
    buf_cap = [0] * n_wtbs
    held = [None] * n_wtbs  # each worker's (win, grp_v, grp_d, grp) arrays

    def grow_buf(wid, slots):
        arrays = held[wid] = (
            np.empty(slots, dtype=np.int64), np.empty(slots, dtype=np.int64),
            np.empty(slots, dtype=np.float64), np.zeros(3 * nb, dtype=np.int64),
        )
        buf = bufs[wid]
        buf.cap = buf_cap[wid] = slots
        buf.win, buf.grp_v, buf.grp_d, buf.grp = (a.ctypes.data for a in arrays)

    cap = state.config.max_chunk  # the MTB's largest assignment
    point(ro=ro, col=col, w=wts, dist=dist, pred=pred,
          live_v=np.empty(cap, dtype=np.int64), live_d=np.empty(cap, dtype=np.float64))
    grow_log(cap)
    # the storage blocks an assignment of at most max_chunk slots touches
    runs = np.empty(2 * (cap // state.config.slots_per_block + 2), dtype=np.int64)
    runs_view = memoryview(runs)
    runs_p = runs.ctypes.data
    ctx_p = ctypes.addressof(ctx)
    kernel = lib.relax_i32 if graph.is_integer_weighted else lib.relax_f32
    read_runs = q.read_runs
    checker = state.checker
    views = (memoryview(ro), memoryview(col), memoryview(wts))

    def batch(wid, slot, start, end):
        k = end - start
        if k > cap:
            raise ProtocolError(f"an assignment of {k} items exceeds max_chunk {cap}")
        nruns = read_runs(slot, start, end, runs_view)
        if buf_cap[wid] < log_cap:
            grow_buf(wid, log_cap)
        if checker is not None:
            before = dist.copy()  # the batch's loads precede its stores
        nw = kernel(ctx_p, buf_addr[wid], nruns, runs_p)
        if nw == native.RELAX_LOG_FULL:  # nothing stored yet: grow, retry
            grow_log(max(ctx.edges, 2 * log_cap))
            grow_buf(wid, log_cap)
            nw = kernel(ctx_p, buf_addr[wid], nruns, runs_p)
        if nw < 0:
            verts = q.storage[slot].read_range(start, end)[0]
            _raise_bad_index(nw, ctx.bad, verts, n)
        n_live = ctx.n_live
        edges = ctx.edges
        if checker is not None and edges:
            live = list(zip(pinned["live_v"][:n_live].tolist(),
                            pinned["live_d"][:n_live].tolist()))
            arrays = _batch_arrays(live, *views, before)
            winners = np.zeros(edges, dtype=bool)
            winners[pinned["log_pos"][:nw]] = True
            checker.on_atomic_min_batch(dist, *arrays, winners)
        return n_live, edges, nw

    def winners(wid, nw):
        return held[wid][0][:nw].tolist()

    return batch, winners, _native_publish(state, lib, ctx_p, bufs)


def _native_publish(state, lib, ctx_p, bufs):
    """The native ``publish`` of :func:`make_relax`: one
    ``publish_groups`` call per batch, with the relax context at
    ``ctx_p`` (its win log is the band's scratch) and worker ``wid``'s
    winners in ``bufs[wid]``, and one more call after each capacity
    wait."""
    q = state.queue
    publish_groups = lib.publish_groups
    qc_p = ctypes.addressof(q.native)
    buf_addr = [ctypes.addressof(b) for b in bufs]
    storage = q.storage
    cap_keys = q.cap_keys
    mem_stats = state.device.mem.stats
    atomic_cycles = state.device.cost.atomic_cycles

    def publish(wid, nw):
        buf = bufs[wid]
        code = publish_groups(ctx_p, buf_addr[wid], qc_p, nw, q.base_dist,
                              q.delta, q.head, atomic_cycles)
        while True:
            # the call's counts land before the worker's next yield, when
            # reserve and publish would have made them
            pushed = buf.pushed
            q.total_pushed += pushed
            q.pushes_since_check += pushed
            q.tail_pushes_since_check += buf.tail_pushed
            mem_stats.atomics += buf.atomics
            mem_stats.fences += buf.fences
            q.low_clips += buf.low_clips
            q.high_clips += buf.high_clips
            if code == 0:
                return buf.push_cost
            if code != native.PUBLISH_WAIT:
                _raise_publish(code, buf)
            st = storage[buf.slot]
            need = buf.need
            yield ("wait", lambda: st.capacity >= need, cap_keys[buf.slot])
            code = publish_groups(ctx_p, buf_addr[wid], qc_p,
                                  native.PUBLISH_RESUME, q.base_dist, q.delta,
                                  q.head, atomic_cycles)

    return publish


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
    if code == native.RELAX_WIN_SHORT:
        raise ProtocolError(
            "a worker's winner buffer is smaller than its batch: it was "
            "not grown to the win log"
        )
    what = {
        native.RELAX_BAD_OFFSETS: f"row_offsets of vertex {bad}",
        native.RELAX_BAD_COLUMN: f"col_indices[{bad}]",
    }[code]
    raise GraphConstructionError(
        f"{what} out of range: the CSR arrays changed after construction"
    )


def _raise_publish(code, buf):
    """The ``ProtocolError`` of a failed ``publish_groups`` call, worded
    as :meth:`BucketQueue.publish
    <repro.core.bucket_queue.BucketQueue.publish>` words it."""
    s = buf.slot
    if code == native.PUBLISH_UNMAPPED:
        raise ProtocolError(
            f"bucket b{s}: write [{buf.bad}, {buf.need}) outside allocated range"
        )
    if code == native.PUBLISH_NO_WCC:
        raise ProtocolError(f"bucket {s}: segment {buf.bad} has no WCC")
    if code == native.PUBLISH_WCC_FULL:
        raise ProtocolError(
            f"bucket {s}: segment {buf.bad} WCC {buf.count} exceeds N"
        )
    _raise_bad_index(code, 0, (), 0)


def wtb_program(state, wid: int, relax, publish):
    """Generator program for worker ``wid`` over the shared solver state;
    ``relax`` and ``publish`` are the solve's :func:`make_relax`
    closures."""
    dev = state.device
    q = state.queue
    af_state = state.af_state
    tracer = dev.tracer
    track = f"WTB{wid}"
    assigned = lambda: af_state[wid] != AF_IDLE  # noqa: E731 - hot predicate
    # Wake channel for the assignment flag: the MTB notifies ("af", wid)
    # when it writes this worker's AF, so the engine re-evaluates the
    # predicate O(assignments) times instead of on every event.
    af_key = ("af", wid)
    # Hoisted hot-path lookups: this loop body runs once per assignment,
    # tens of thousands of times per solve.
    trace_on = tracer.enabled
    complete = q.complete
    af_edges = state.af_edges

    while True:
        yield ("wait", assigned, af_key)
        if af_state[wid] == AF_STOP:
            return

        slot, k, epoch, n_live, edges, latency, nbytes, nw = relax(wid)

        if trace_on:
            dev.annotate(
                "relax_batch", bucket=slot, items=k,
                live=n_live, stale=k - n_live, wins=nw,
            )
        yield ("relax", latency, edges, nbytes)

        # ---- publication at batch completion ---------------------------------
        if nw:
            # at the winners' distances as of now: other WTBs' batches
            # may have improved them since this one relaxed
            push_cost = yield from publish(wid, nw)
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
