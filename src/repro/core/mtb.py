"""§5.1/§5.4: the manager thread block (MTB) program.

Every management pass the MTB:

1. **allocates** — grows each bucket's block table ahead of its
   ``resv_ptr`` and retires fully-consumed blocks (§5.3: "All memory
   management is performed by the MTB");
2. **scans and assigns** — computes the readable range of each bucket in
   the active window (head first, §5.4: "higher priority buckets are
   considered first and lower priority buckets ... only if there are idle
   WTBs"), carves it into chunks and publishes them to idle WTBs through
   their assignment flags;
3. **rotates** — recycles the head bucket when all of its work has been
   read *and* completed (the CWC guard; skipping it is the paper's
   cramming failure, available as ``unsafe_rotation`` for the tests);
4. **tunes** — feeds the Δ controller the current in-flight work and the
   clip-guard signal, applying active-bucket and Δ adjustments;
5. **terminates** — after ``TERMINATION_SWEEPS`` consecutive passes in
   which the queue is empty, nothing is in flight and every WTB is idle,
   it broadcasts STOP to all AFs and exits (§5.4: two sweeps "to ensure
   that all work in progress has been completed").

Each pass is charged via :meth:`CostModel.mtb_pass_cost`, proportional to
segments scanned and assignments made — the delegation economics of the
paper (warp-wide metadata reads amortized over many work items).
"""

from __future__ import annotations

from itertools import compress

from repro.core.wtb import AF_ASSIGNED, AF_IDLE, AF_STOP

__all__ = ["mtb_program"]

#: Idle MTB pass interval, cycles (how often the manager re-scans when
#: nothing changed).
MTB_IDLE_CYCLES = 400.0

#: Consecutive empty sweeps of the work queue before terminating (§5.4:
#: "two sweeps are needed").
TERMINATION_SWEEPS = 2


def mtb_program(state):
    """Generator program for the manager thread block."""
    dev = state.device
    cost = dev.cost
    q = state.queue
    cfg = state.config
    ctrl = state.controller
    af_state = state.af_state
    n_wtbs = len(af_state)
    avg_deg = max(state.graph.average_degree(), 1.0)
    target_edges = (
        cfg.target_chunk_edges
        if cfg.target_chunk_edges is not None
        else dev.spec.threads_per_block
    )
    chunk_items = int(min(cfg.max_chunk, max(4, round(target_edges / avg_deg))))
    lookahead = 2 * cfg.max_chunk
    # Wake-channel keys mirroring the WTB side: writing a worker's AF is
    # followed by a notify on its channel so only that worker's
    # predicate is re-evaluated.
    af_keys = tuple(("af", w) for w in range(n_wtbs))
    wtb_ids = range(n_wtbs)
    notify = dev.notify

    tracer = dev.tracer
    trace_on = tracer.enabled
    # Hoisted hot-path lookups (one pass per few hundred cycles).
    ensure_capacity = q.ensure_capacity
    retire_read_blocks = q.retire_read_blocks
    readable_upper = q.readable_upper
    advance_read = q.advance_read
    bucket_read_out = q.bucket_read_out
    bucket_drained = q.bucket_drained
    outstanding = q.outstanding
    relax_edge_integral = dev.relax_edge_integral
    observe = ctrl.observe
    adjust_active_buckets = ctrl.adjust_active_buckets
    mtb_pass_cost = cost.mtb_pass_cost
    dynamic_delta = cfg.dynamic_delta
    unsafe_rotation = cfg.unsafe_rotation
    n_buckets = q.n_buckets
    bucket_ids = range(n_buckets)
    resv = q.resv
    af_slot = state.af_slot
    af_start = state.af_start
    af_end = state.af_end
    af_epoch = state.af_epoch
    af_edges = state.af_edges
    q_epoch = q.epoch
    q_read = q.read
    # dynamic protocol checker (repro.check); getattr so hand-built test
    # states without the field keep working
    checker = getattr(state, "checker", None)

    empty_sweeps = 0
    last_integral = 0.0
    last_now = 0.0
    while True:
        segments_scanned = 0
        assignments = 0
        assigned_items = 0

        # ---- 1. memory management ------------------------------------------
        # Only buckets with reservations (plus the head, which must stay
        # pre-grown) can hold storage blocks: a bucket leaves ``resv == 0``
        # only via reset, which drops its blocks.  Scanning the other ~30
        # empty slots every pass was a top host-side hot spot; compress
        # does the filtering in C.
        for slot in compress(bucket_ids, resv):
            ensure_capacity(slot, resv[slot] + lookahead)
            retire_read_blocks(slot)
        head = q.head
        if not resv[head]:
            ensure_capacity(head, lookahead)
            retire_read_blocks(head)

        # ---- 2. scan + assign ------------------------------------------------
        # ascending worker ids whose AF reads idle, filtered in C
        idle = list(compress(wtb_ids, map(AF_IDLE.__eq__, af_state)))
        for rel in range(ctrl.active_buckets):
            if not idle:
                break
            slot = (head + rel) % n_buckets
            upper, scanned = readable_upper(slot)
            segments_scanned += scanned
            rd = q_read[slot]
            epoch_s = q_epoch[slot]
            while idle and rd < upper:
                start = rd
                end = min(start + chunk_items, upper)
                advance_read(slot, end)
                rd = end
                wid = idle.pop()
                af_slot[wid] = slot
                af_start[wid] = start
                af_end[wid] = end
                af_epoch[wid] = epoch_s
                est_edges = (end - start) * avg_deg
                af_edges[wid] = est_edges
                state.outstanding_edges += est_edges
                af_state[wid] = AF_ASSIGNED  # the worker's AF poll sees this
                if checker is not None:
                    checker.on_assign(wid, slot, start, end, epoch_s)
                notify(af_keys[wid])
                assignments += 1
                assigned_items += end - start
                if trace_on:
                    tracer.instant(
                        "MTB", "assign", dev.now_us, cat="mtb",
                        wtb=wid, bucket=slot, items=end - start,
                        est_edges=est_edges,
                    )

        # ---- 3. rotation ---------------------------------------------------------
        rotated = 0
        # at most n_buckets - 1 in a row, so the head never laps itself
        while rotated < n_buckets - 1:
            head = q.head
            if not bucket_read_out(head):
                break
            if unsafe_rotation:
                # Even the broken variant cannot recycle storage a WTB is
                # still reading from — the paper's failure mode is spawned
                # work landing in a rotated band, not a use-after-free.
                pinned = any(
                    a == AF_ASSIGNED and s == head
                    for a, s in zip(af_state, af_slot)
                )
                if pinned:
                    break
            elif not bucket_drained(head):
                break
            # Work pending in another bucket: the head is read out and no
            # read_ptr passes its resv_ptr, so any unread bucket makes the
            # two lists differ.
            if not (
                state.outstanding_edges > 0 or outstanding() > 0 or resv != q_read
            ):
                break  # nothing left anywhere: rotating forever is pointless
            q.rotate()
            q.reset_push_window()  # clip guard measures the freshest band
            rotated += 1

        # ---- 4. Δ controller -----------------------------------------------------
        # The utilization signal is the exact time-average of edges in
        # flight since the previous pass (point samples would alias the
        # burst-idle pattern of small batches).
        integral = relax_edge_integral()
        now = dev.now
        span = now - last_now
        window_avg = (integral - last_integral) / span if span > 0 else 0.0
        last_integral, last_now = integral, now
        observe(window_avg)
        adjust_active_buckets()
        if dynamic_delta:
            old = ctrl.delta
            new = ctrl.maybe_adjust_delta(q.tail_push_fraction(), q.rotations)
            if new != old:
                q.set_delta(new)
                q.reset_push_window()
                state.delta_trace.append((dev.now_us, new))

        # ---- 5. termination ---------------------------------------------------------
        # With no assignments this pass the AF array is unchanged since
        # the idle scan, so the (possibly shrunken) idle list stands in
        # for re-scanning it.
        queue_empty = (
            assignments == 0
            and len(idle) == n_wtbs
            and outstanding() == 0
            and resv == q_read
        )
        if queue_empty:
            empty_sweeps += 1
            if empty_sweeps >= TERMINATION_SWEEPS:
                for w in range(n_wtbs):
                    af_state[w] = AF_STOP
                    notify(af_keys[w])
                if trace_on:
                    tracer.instant(
                        "MTB", "stop_broadcast", dev.now_us, cat="mtb",
                        empty_sweeps=empty_sweeps,
                    )
                return
        else:
            empty_sweeps = 0

        # ---- 6. charge the pass ------------------------------------------------------
        if trace_on:
            dev.annotate(
                "mtb_pass", segments=segments_scanned,
                assignments=assignments, items=assigned_items, rotated=rotated,
            )
            tracer.counter("active_buckets", dev.now_us, ctrl.active_buckets)
            tracer.counter(
                "outstanding_edges", dev.now_us, max(0.0, state.outstanding_edges)
            )
        if assignments or rotated:
            yield ("busy", mtb_pass_cost(segments_scanned, assignments))
        else:
            yield ("busy", max(MTB_IDLE_CYCLES, mtb_pass_cost(segments_scanned, 0)))
