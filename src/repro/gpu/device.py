"""The discrete-event engine that interleaves thread-block programs.

A *program* is a Python generator (one per simulated thread block) that
yields cost events and communicates with other programs through shared
state (NumPy arrays + :class:`~repro.gpu.memory.SimMemory` atomics).  The
engine advances a cycle clock and interleaves programs by event completion
time — so the ADDS manager/worker protocol from the paper executes with
real concurrency: a WTB's bucket pushes genuinely race with the MTB's
segment scans, at event granularity.

Events a program may yield
--------------------------

``("busy", cycles)``
    The block computes/accesses memory for ``cycles`` cycles.

``("relax", latency_cycles, edges, bytes)``
    A batch of ``edges`` edge relaxations.  The engine tracks ``edges``
    as in-flight work for the parallelism timeline (Figures 11–15) and
    owns a DRAM reservation clock that serializes the ``bytes`` of all
    relax batches through the device's peak bandwidth, so aggregate
    memory throughput is exactly the spec's peak when saturated and the
    batch's duration is ``max(latency_cycles, queueing delay + own
    transfer time)``.  This is what makes saturated executions
    bandwidth-bound and starved ones latency-bound without any
    per-batch sharing guesswork.

``("wait", predicate, channel)``
    The block sleeps until ``predicate()`` is true, registered on the
    named *wake channel* (any hashable key).  The predicate is only
    re-evaluated when a writer calls :meth:`Device.notify` with the same
    key — O(notifications), not O(events × waiters).  A wait models a
    hardware thread block spinning on a flag in scratchpad, so resuming
    always charges one :attr:`CostModel.af_poll_cycles` — the successful
    poll that noticed the flag — *including* when the flag was already
    set at registration time (the write raced ahead of the worker's
    first poll).

Any other event kind, or one of these kinds with the wrong number of
fields, raises :class:`DeviceError` naming the block.

The wake-channel protocol (who notifies, tie-break rules, the rescue
rescan) is documented in ``docs/simulator.md``.  Channel efficiency is
observable through :attr:`Device.wakeups` / :attr:`Device.spurious_wakeups`;
a missed notification is rescued by the deadlock-detection rescan and
counted in :attr:`Device.missed_wakeups` so writer bugs cannot hide.

Programs finish by returning.  :meth:`Device.run` returns when every
program has finished; if all remaining programs are waiting and no
predicate can ever fire the engine raises :class:`DeviceError` (deadlock),
which turns protocol bugs into loud failures instead of hangs.
"""

from __future__ import annotations

import itertools
import random
from heapq import heappop, heappush
from dataclasses import dataclass, field
from typing import Callable, Generator, Hashable, List, Optional, Tuple

from repro.errors import DeviceError
from repro.gpu.costmodel import CostModel
from repro.gpu.memory import SimMemory
from repro.gpu.specs import DeviceSpec
from repro.gpu.timeline import Timeline
from repro.trace.tracer import Tracer, coalesce

__all__ = ["Device", "BlockContext"]

Program = Generator[tuple, None, None]

#: Sentinel two-arg ``next`` returns when a program generator finishes.
_FINISHED = object()

#: The one accepted shape of each event kind (see the module docstring).
_EVENT_FORMS = {
    "busy": "('busy', cycles)",
    "relax": "('relax', latency_cycles, edges, bytes)",
    "wait": "('wait', predicate, channel)",
}


def _malformed(ctx: BlockContext, event: tuple) -> DeviceError:
    kind = event[0]
    return DeviceError(
        f"{ctx.name}: malformed {kind!r} event with {len(event)} fields; "
        f"expected {_EVENT_FORMS[kind]}"
    )


@dataclass(slots=True)
class BlockContext:
    """Per-block bookkeeping the engine keeps for a registered program."""

    block_id: int
    name: str
    program: Program = field(repr=False)
    finished: bool = False
    _wait_started: float = 0.0
    _pending_relax: Optional[float] = None
    #: (name, args) set by Device.annotate for the next yielded event.
    _annotation: Optional[Tuple[str, dict]] = None


class Device:
    """A simulated GPU executing thread-block programs.

    Parameters
    ----------
    spec:
        Hardware description (see :mod:`repro.gpu.specs`).
    cost:
        Cycle cost model; defaults to ``CostModel(spec)``.
    max_events:
        Safety valve: total event budget before the engine declares a
        livelock (:class:`DeviceError`).
    perturb_seed:
        ``None`` (default) keeps the engine's canonical tie-break — the
        global registration/issue sequence — and is bit-identical to
        every engine before the perturber existed.  An integer seeds a
        deterministic RNG that randomizes the two tie-breaks the
        canonical order hides: the pop order of events sharing a
        timestamp, and the wake order of simultaneously-satisfiable
        channel waiters.  Both orders are *unspecified* on real hardware,
        so any simulated outcome that changes under perturbation is a
        schedule-dependence bug; :mod:`repro.check` runs solvers across
        many seeds to hunt exactly those.  The same seed always replays
        the same schedule.
    """

    def __init__(
        self,
        spec: DeviceSpec,
        cost: Optional[CostModel] = None,
        *,
        max_events: int = 20_000_000,
        tracer: Optional[Tracer] = None,
        perturb_seed: Optional[int] = None,
    ) -> None:
        self.spec = spec
        self.cost = cost if cost is not None else CostModel(spec)
        if self.cost.spec is not spec and self.cost.spec != spec:
            raise DeviceError("cost model was built for a different device spec")
        self.mem = SimMemory()
        self.tracer = coalesce(tracer)
        self.timeline = Timeline(label=spec.name)
        self.now: float = 0.0  # cycles
        # Same divisor as DeviceSpec.cycles_to_us, hoisted: now_us sits on
        # the per-event path and must stay bit-identical to the spec math.
        self._cycles_per_us = spec.max_clock_ghz * 1e3
        self.max_events = max_events
        self._blocks: List[BlockContext] = []
        self._heap: List[Tuple[float, int, BlockContext]] = []
        self._seq = itertools.count()
        # Heap tie-break priority.  Unperturbed it IS the sequence counter
        # (same object method, so the hot path pays nothing for the
        # indirection); perturbed it prepends a seeded random draw, so
        # same-timestamp events pop in RNG order while distinct
        # timestamps keep their causal order.  The trailing counter keeps
        # priorities unique (BlockContext is not orderable).
        self.perturb_seed = perturb_seed
        if perturb_seed is None:
            self._rng: Optional[random.Random] = None
            self._next_prio: Callable[[], object] = self._seq.__next__
        else:
            self._rng = random.Random(perturb_seed)
            rng_random = self._rng.random
            seq_next = self._seq.__next__
            self._next_prio = lambda: (rng_random(), seq_next())
        # Wake channels: key -> [(registration order, ctx, predicate)].
        # Waiters across channels wake in registration order, which is
        # exactly the order the rescan engine's waiting list had — the
        # tie-break feeding next(self._seq) is semantics, not style.
        self._channels: dict = {}
        self._notified: set = set()
        self._wait_reg = 0
        #: Waiters resumed (each charged one AF poll).
        self.wakeups = 0
        #: Channel predicate evaluations that failed after a notify
        #: (the writer's channel was too coarse for this waiter).
        self.spurious_wakeups = 0
        #: Waiters rescued by the deadlock-detection rescan: a writer
        #: changed their predicate without notifying.  Loud in metrics
        #: because it means a writer bug, not a slow path.
        self.missed_wakeups = 0
        self._relax_edges = 0.0
        self._relax_integral = 0.0  # ∫ edges-in-flight dt, edge·cycles
        self._relax_changed_at = 0.0
        self._bw_clock = 0.0  # DRAM reservation clock, cycles
        self._total_events = 0
        self._ran = False
        self._current_ctx: Optional[BlockContext] = None
        self._trace_on = self.tracer.enabled
        self._af_poll = self.cost.af_poll_cycles
        self._bytes_per_cycle = spec.bytes_per_cycle

    # -- setup ----------------------------------------------------------------- #

    def add_block(self, name: str, program: Program) -> BlockContext:
        """Register a thread-block program before :meth:`run`."""
        if self._ran:
            raise DeviceError("cannot add blocks after run()")
        if len(self._blocks) >= self.spec.max_resident_blocks:
            raise DeviceError(
                f"{self.spec.name} fits only {self.spec.max_resident_blocks} "
                f"resident blocks of {self.spec.threads_per_block} threads"
            )
        ctx = BlockContext(block_id=len(self._blocks), name=name, program=program)
        self._blocks.append(ctx)
        return ctx

    # -- queries programs may use ------------------------------------------------ #

    @property
    def now_us(self) -> float:
        return self.now / self._cycles_per_us

    def current_block_name(self) -> Optional[str]:
        """Name of the thread block whose program step is executing.

        ``None`` outside :meth:`run` — i.e. for host-side code such as the
        solver seeding the source vertex.  The protocol checker uses this
        to attribute queue operations to their thread block (SRMW role
        enforcement); it is valid from any code a program calls
        synchronously between its yields."""
        ctx = self._current_ctx
        return None if ctx is None else ctx.name

    def relax_edge_integral(self) -> float:
        """∫ edges-in-flight dt so far, in edge·cycles.

        Two readings divided by the elapsed cycles give the exact
        time-averaged parallelism over a window — the utilization signal
        the ADDS Δ controller samples (point samples would alias the
        burst-idle-burst pattern of small batches)."""
        return self._relax_integral + self._relax_edges * (
            self.now - self._relax_changed_at
        )

    def annotate(self, name: str, **args: object) -> None:
        """Name (and attach args to) the *next* event the currently
        running program yields — e.g. the MTB calls
        ``device.annotate("mtb_pass", assignments=3)`` right before its
        ``("busy", cycles)`` yield so the trace span carries the pass
        semantics instead of a generic "busy".  A no-op when tracing is
        disabled or called outside a program step."""
        if not self._trace_on or self._current_ctx is None:
            return
        self._current_ctx._annotation = (name, dict(args))

    # -- wake channels ----------------------------------------------------------- #

    def notify(self, channel: Hashable) -> None:
        """A writer changed state some waiter on ``channel`` may be
        spinning on.  Cheap (a set add when the channel has waiters, an
        attribute test otherwise); the predicates themselves are
        re-evaluated once the current program step completes, so a
        writer may batch several flag writes before its next yield and
        pay one evaluation per waiter."""
        if channel in self._channels:
            self._notified.add(channel)

    # -- engine ----------------------------------------------------------------- #

    def run(self) -> float:
        """Execute all registered programs to completion; returns cycles."""
        if self._ran:
            raise DeviceError("device already ran")
        self._ran = True
        for ctx in self._blocks:
            self._schedule(ctx, self.now)
        heap = self._heap
        step = self._step
        # _notified is mutated in place everywhere, so the per-event
        # emptiness test can run on a hoisted binding.
        notified = self._notified
        process_wakes = self._process_wakes
        while True:
            if not heap:
                if not self._channels:
                    break  # every program finished
                self._rescue_or_deadlock()
                continue
            # Drain every event sharing the earliest timestamp as one
            # batch: one clock advance, one pop loop, and (because a
            # woken waiter is always rescheduled af_poll_cycles later)
            # the exact pop order the one-event-at-a-time loop had.
            t = heap[0][0]
            if t > self.now:
                self.now = t
            while heap and heap[0][0] == t:
                step(heappop(heap)[2])
                if notified:
                    process_wakes()
        return self.now

    # -- internals --------------------------------------------------------------- #

    def _schedule(self, ctx: BlockContext, t: float) -> None:
        heappush(self._heap, (t, self._next_prio(), ctx))

    def _wake(self, ctx: BlockContext) -> None:
        """Resume a waiter: trace its idle span, charge the successful poll."""
        now = self.now
        if self._trace_on:
            start_us = self.spec.cycles_to_us(ctx._wait_started)
            self.tracer.span(
                ctx.name, "idle", start_us,
                self.now_us - start_us, cat="wait",
            )
        heappush(self._heap, (now + self._af_poll, self._next_prio(), ctx))

    def _process_wakes(self) -> None:
        """Evaluate the notified channels; wake every satisfied waiter in
        registration order (the rescan engine's order)."""
        ready: Optional[List[Tuple[int, BlockContext, Callable[[], bool]]]] = None
        notified = self._notified
        channels = self._channels
        for key in notified:
            waiters = channels.get(key)
            if not waiters:
                continue
            keep = None
            for item in waiters:
                if item[2]():
                    if ready is None:
                        ready = []
                    ready.append(item)
                else:
                    self.spurious_wakeups += 1
                    if keep is None:
                        keep = []
                    keep.append(item)
            if keep is None:
                del channels[key]
            else:
                channels[key] = keep
        notified.clear()
        if ready is None:
            return
        if len(ready) > 1:
            # Canonical order: registration order, exactly the rescan
            # engine's waiting list.  Perturbed: any permutation of the
            # simultaneously-satisfied waiters is a legal hardware
            # outcome, so draw one.
            if self._rng is None:
                ready.sort()
            else:
                ready.sort()  # seed-independent base order first
                self._rng.shuffle(ready)
        for item in ready:
            self._wake(item[1])
        self.wakeups += len(ready)
        if self._trace_on:
            self.tracer.counter("wakeups", self.now_us, self.wakeups)
            self.tracer.counter(
                "spurious_wakeups", self.now_us, self.spurious_wakeups
            )

    def _rescue_or_deadlock(self) -> None:
        """Heap empty with blocks waiting: the full-rescan safety net.

        A satisfied waiter found here means a writer changed its
        predicate without a notify — woken anyway (counted in
        :attr:`missed_wakeups`) so a writer bug degrades instead of
        hanging.  Unsatisfied waiters stay registered on their own
        channel, so a later notify on that key still wakes them.
        Nothing satisfied is a genuine deadlock."""
        channels = self._channels
        rescued: List[Tuple[int, BlockContext, Callable[[], bool]]] = []
        for key in list(channels):
            keep = []
            for item in channels[key]:
                (rescued if item[2]() else keep).append(item)
            if keep:
                channels[key] = keep
            else:
                del channels[key]
        if not rescued:
            stuck = sorted(item for waiters in channels.values() for item in waiters)
            waiters = ", ".join(item[1].name for item in stuck)
            raise DeviceError(f"deadlock: blocks waiting forever: {waiters}")
        for item in rescued:
            self._wake(item[1])
        self.missed_wakeups += len(rescued)
        self.wakeups += len(rescued)

    def _step(self, ctx: BlockContext) -> None:
        """Resume one program and interpret its next yielded event.

        The in-flight-edge accounting (the integral behind
        :meth:`relax_edge_integral` and the timeline sample) is done
        inline: a relax batch adds its edges when it is issued and takes
        them off when its block next steps.  Events draining at the same
        timestamp skip the integral update (elapsed == 0)."""
        now = self.now  # the clock only advances in run(), never mid-step
        now_us = now / self._cycles_per_us
        # Complete the effects of the event that just elapsed.
        pending = ctx._pending_relax
        if pending is not None:
            ctx._pending_relax = None
            if now != self._relax_changed_at:
                self._relax_integral += self._relax_edges * (
                    now - self._relax_changed_at
                )
                self._relax_changed_at = now
            self._relax_edges -= pending
            if self._trace_on:
                self.tracer.counter(
                    "edges_in_flight", now_us, max(0.0, self._relax_edges)
                )
            self.timeline.record(now_us, max(0.0, self._relax_edges))

        self._total_events += 1
        if self._total_events > self.max_events:
            raise DeviceError(
                f"event budget exceeded ({self.max_events}); "
                "likely a livelock in a block program"
            )
        self._current_ctx = ctx
        try:
            # Two-arg next traps StopIteration in C — no try/except
            # on the per-event path.
            event = next(ctx.program, _FINISHED)
            if event is _FINISHED:
                ctx.finished = True
                return

            kind = event[0]
            if kind == "busy":
                try:
                    _, cycles = event
                except ValueError:
                    raise _malformed(ctx, event) from None
                cycles = float(cycles)
                if cycles < 0:
                    raise DeviceError(f"{ctx.name}: negative busy duration")
                if self._trace_on:
                    name, args = self._take_annotation(ctx, "busy")
                    self.tracer.span(
                        ctx.name, name, now_us,
                        self.spec.cycles_to_us(cycles), cat="compute", **args,
                    )
                heappush(self._heap, (now + cycles, self._next_prio(), ctx))
                return
            if kind == "relax":
                try:
                    _, cycles, edges, nbytes = event
                except ValueError:
                    raise _malformed(ctx, event) from None
                cycles, edges = float(cycles), float(edges)
                if cycles < 0 or edges < 0:
                    raise DeviceError(f"{ctx.name}: negative relax event")
                nbytes = float(nbytes)
                if nbytes < 0:
                    raise DeviceError(f"{ctx.name}: negative relax bytes")
                # serialize the batch's bytes through DRAM
                service_start = max(now, self._bw_clock)
                dram_wait = service_start - now
                transfer_done = service_start + nbytes / self._bytes_per_cycle
                self._bw_clock = transfer_done
                cycles = max(cycles, transfer_done - now)
                if now != self._relax_changed_at:
                    self._relax_integral += self._relax_edges * (
                        now - self._relax_changed_at
                    )
                    self._relax_changed_at = now
                self._relax_edges += edges
                self.timeline.record(now_us, self._relax_edges)
                if self._trace_on:
                    self.tracer.counter(
                        "edges_in_flight", now_us, max(0.0, self._relax_edges)
                    )
                    name, args = self._take_annotation(ctx, "relax")
                    args.setdefault("edges", edges)
                    if dram_wait > 0:
                        args["dram_wait_us"] = self.spec.cycles_to_us(dram_wait)
                    self.tracer.span(
                        ctx.name, name, now_us,
                        self.spec.cycles_to_us(cycles), cat="relax", **args,
                    )
                ctx._pending_relax = edges
                heappush(self._heap, (now + cycles, self._next_prio(), ctx))
                return
            if kind == "wait":
                try:
                    _, pred, channel = event
                except ValueError:
                    raise _malformed(ctx, event) from None
                if not callable(pred):
                    raise DeviceError(
                        f"{ctx.name}: wait predicate must be callable"
                    )
                if pred():
                    # A wait models spinning on a hardware flag: the
                    # flag being set before the first poll still
                    # costs that poll.
                    self.wakeups += 1
                    heappush(self._heap, (now + self._af_poll, self._next_prio(), ctx))
                    return
                self._wait_reg += 1
                ctx._wait_started = now
                waiters = self._channels.get(channel)
                if waiters is None:
                    self._channels[channel] = [(self._wait_reg, ctx, pred)]
                else:
                    waiters.append((self._wait_reg, ctx, pred))
                return
            raise DeviceError(f"{ctx.name}: unknown event kind {kind!r}")
        finally:
            self._current_ctx = None

    @staticmethod
    def _take_annotation(ctx: BlockContext, default: str) -> Tuple[str, dict]:
        """Pop the program-supplied name/args for the event being emitted."""
        if ctx._annotation is None:
            return default, {}
        name, args = ctx._annotation
        ctx._annotation = None
        return name, args
