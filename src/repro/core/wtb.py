"""§5.1: the worker thread block (WTB) program.

Each WTB loops forever:

1. spin on its **assignment flag** (AF) in scratchpad — "Each idle WTB
   polls its respective AF ... and thus receives work from the MTB
   without contention with other WTBs";
2. on assignment ``(bucket, start, end)``: read the work items, drop
   stale ones (their vertex has improved since the push), expand the rest
   and atomically relax their out-edges on the shared distance array;
3. push every *winning* relaxation as a new work item: compute its band
   under the current Δ, atomically reserve slots (``resv_ptr``), write,
   fence, bump the segment WCCs — the multi-writer half of §5.2.  If the
   reservation outruns the allocated blocks the WTB waits for the MTB's
   allocator to catch up (§5.3: all memory management is the MTB's job);
4. report completion: bump the source bucket's CWC by the full assignment
   size (stale items included — they were assigned work), then clear the
   AF.

The relaxation itself is one vectorized batch priced by the cost model;
its memory effects land when the batch *finishes*, so concurrent WTBs
genuinely race on the distance array and redundant work arises exactly as
it does on hardware.

Step 2 is :func:`make_relax`: one closure per solve, shared by every
worker, holding the hoisted per-solve bindings (64-bit CSR twins, the
per-vertex adjacency cache, the batch price memo).  Each worker's step 2
runs alone in its own event: the single-reader MTB hands out assignments
one at a time, so too few workers are ready at one timestamp for fusing
their relaxations to pay (see ``docs/simulator.md``).
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro.graphs.csr import expand_frontier

__all__ = ["wtb_program", "make_relax", "AF_IDLE", "AF_ASSIGNED", "AF_STOP"]

AF_IDLE = 0
AF_ASSIGNED = 1
AF_STOP = 2


def make_relax(state):
    """The WTB relaxation phase (step 2) as one per-solve closure.

    ``relax(wid)`` decodes worker ``wid``'s AF, reads the assigned items,
    drops stale ones, expands the live frontier, prices the batch and
    applies its atomic-min on the distance array.  It returns the plain
    tuple ``(slot, k, epoch, n_live, edges, latency, nbytes, new_v, nw)``
    where ``new_v`` holds the ``nw`` winning destinations (``None`` when
    the batch has no edges).
    """
    dev = state.device
    cost = dev.cost
    mem = dev.mem
    q = state.queue
    graph = state.graph
    dist = state.dist
    pred_out = state.pred
    float_weights = state.float_weights
    avg_deg = max(graph.average_degree(), 1.0)
    # Pre-cast CSR view: expand_frontier's output feeds float64 distance
    # math and int64 atomics, so gathering from 64-bit twins of the CSR
    # arrays skips two per-batch ``astype`` copies.  Values are identical
    # (int32→int64 and int32/float32→float64 are exact).
    col64 = state.col64
    w64 = state.w64
    exp_graph = SimpleNamespace(
        row_offsets=graph.row_offsets, col_indices=col64, weights=w64
    )
    # Hoisted hot-path lookups: this closure runs once per assignment,
    # tens of thousands of times per solve.
    af_slot_item = state.af_slot.item
    af_start_item = state.af_start.item
    af_end_item = state.af_end.item
    af_epoch_item = state.af_epoch.item
    read_items = q.read_items
    atomic_min_batch = mem.atomic_min_batch
    wtb_batch_latency = cost.wtb_batch_latency
    wtb_batch_bytes = cost.wtb_batch_bytes
    # Batch pricing is a pure function of the edge count once the solve
    # fixes float_weights and avg_deg, and edge counts repeat heavily
    # (chunk sizes × a bounded degree mix), so memoize per solve.
    price_memo: dict = {}
    count_nonzero = np.count_nonzero
    concatenate = np.concatenate
    adj = state.adj
    ro_item = graph.row_offsets.item
    dist_item = dist.item
    # dynamic protocol checker (repro.check), or None
    checker = state.checker

    def relax(wid: int):
        slot = af_slot_item(wid)
        start = af_start_item(wid)
        end = af_end_item(wid)
        epoch = af_epoch_item(wid)
        k = end - start
        if checker is not None:
            # the claim check: what this WTB decoded from its AF must be
            # exactly what the MTB assigned, in the epoch it was made
            checker.on_claim(wid, slot, start, end, epoch)
        verts, pushed = read_items(slot, start, end)
        if adj is not None and k <= 12:
            # Fused scalar path for small chunks (the dominant shape on
            # mesh/road graphs): one pass does the stale check and gathers
            # each live vertex's cached adjacency — the same slices
            # ``expand_frontier`` would take, concatenated in the same
            # order, so the batch below is bit-identical.
            src_parts = []
            dst_parts = []
            w_parts = []
            n_live = 0
            verts_l = verts.tolist()
            pushed_l = pushed.tolist()
            for i in range(k):
                v = verts_l[i]
                # stale check: the pushed distance is current iff the
                # vertex has not improved since (distances only decrease)
                if pushed_l[i] <= dist_item(v):
                    n_live += 1
                    ent = adj[v]
                    if ent is None:
                        s = ro_item(v)
                        e = ro_item(v + 1)
                        sv = np.empty(e - s, dtype=np.int64)
                        sv.fill(v)
                        ent = adj[v] = (sv, col64[s:e], w64[s:e])
                    src_parts.append(ent[0])
                    dst_parts.append(ent[1])
                    w_parts.append(ent[2])
            if n_live:
                srcs = concatenate(src_parts)
                dsts = concatenate(dst_parts)
                ws = concatenate(w_parts)
                edges = int(dsts.size)
            else:
                edges = 0
        else:
            # stale check: the pushed distance is current iff the vertex
            # has not improved since (distances only decrease)
            live = pushed <= dist[verts]
            n_live = int(count_nonzero(live))
            live_verts = verts if n_live == k else verts[live]

            srcs, dsts, ws = expand_frontier(exp_graph, live_verts)
            edges = int(dsts.size)
        priced = price_memo.get(edges)
        if priced is None:
            priced = price_memo[edges] = (
                wtb_batch_latency(edges, float_weights=float_weights),
                wtb_batch_bytes(edges, avg_deg),
            )
        latency, nbytes = priced
        # Distance updates commit as the batch runs (hardware atomics are
        # visible to concurrently running blocks), so they are applied at
        # dispatch; the *work items* this batch spawns only become visible
        # when the push instructions + WCC increments execute, i.e. after
        # the batch's duration (see wtb_program).
        state.work_count += n_live
        nw = 0
        new_v = None
        if edges:
            cand = dist[srcs] + ws
            winners = atomic_min_batch(
                dist, dsts, cand, payload=srcs, payload_out=pred_out
            )
            new_v = dsts[winners]
            nw = int(new_v.size)
        return (slot, k, epoch, n_live, edges, latency, nbytes, new_v, nw)

    return relax


def wtb_program(state, wid: int, relax):
    """Generator program for worker ``wid`` over the shared solver state;
    ``relax`` is the solve's :func:`make_relax` closure."""
    dev = state.device
    q = state.queue
    dist = state.dist
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
    push_slots_list = q.push_slots_list
    reserve = q.reserve
    capacity = q.capacity
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
            new_d = dist[new_v]
            slots_l = push_slots_list(new_d)
            push_cost = 0.0
            s0 = slots_l[0]
            if nw == 1 or slots_l.count(s0) == nw:
                # common case: the whole batch lands in one slot
                groups = ((s0, new_v, new_d),)
            else:
                # group by physical slot, ascending (reserve/publish
                # order is protocol-visible): a scalar pass beats
                # per-slot boolean masks at these batch sizes
                by_slot: dict = {}
                for pos, s in enumerate(slots_l):
                    bucket = by_slot.get(s)
                    if bucket is None:
                        by_slot[s] = [pos]
                    else:
                        bucket.append(pos)
                groups = tuple(
                    (s, new_v[pos], new_d[pos])
                    for s, pos in sorted(by_slot.items())
                )
            for s, vs, ds in groups:
                kk = int(vs.size)
                idx0 = reserve(s, kk)
                if capacity(s) < idx0 + kk:
                    # block not allocated yet: wait for the MTB
                    # (bind loop variables via defaults)
                    if trace_on:
                        tracer.instant(
                            track, "alloc_wait", dev.now_us, cat="alloc",
                            bucket=s, need=idx0 + kk,
                            capacity=capacity(s),
                        )
                    yield (
                        "wait",
                        lambda s=s, need=idx0 + kk: capacity(s) >= need,
                        cap_keys[s],
                    )
                segs = publish(s, idx0, vs, ds)
                push_cost += atomic_cycles * (1 + segs) + 4.0 * kk
            yield ("busy", push_cost)

        complete(slot, k, epoch)
        state.outstanding_edges -= af_edges.item(wid)
        af_edges[wid] = 0.0
        af_state[wid] = AF_IDLE
        if trace_on:
            tracer.instant(
                track, "wtb_complete", dev.now_us, cat="wtb",
                bucket=slot, items=k,
            )
