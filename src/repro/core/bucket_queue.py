"""§5.2/§5.4: the circular multi-bucket priority queue with SRMW access.

Data structure recap from the paper:

- an ordered circular queue of ``n_buckets`` (32) buckets; priorities
  increase with distance; the *head* bucket holds the lowest-distance band
  ``[base_dist, base_dist + Δ)``, and band ``rel`` lives in physical
  bucket ``(head + rel) % n_buckets``;
- WTBs (the many writers) add work with an atomic bump of the bucket's
  **resv_ptr**, write their items into the reserved slots, execute a
  memory fence, and atomically increment the **WCC** of each touched
  N-slot segment;
- the MTB (the single reader) derives the *readable range* from segment
  WCCs: a segment with ``WCC == N`` is fully written; for a partial
  segment, ``segment_base + WCC == resv_ptr`` (checked after a fence)
  proves everything up to ``resv_ptr`` is written; otherwise nothing past
  the previous segment boundary may be trusted (§5.2 verbatim);
- a per-bucket **CWC** counts completed work items; the head bucket may
  only rotate once ``CWC == resv_ptr`` *and* everything was read —
  rotating earlier causes the "continuous cramming of work into ever
  fewer buckets" failure (§5.4), reproducible here via
  ``AddsConfig.unsafe_rotation``;
- distances outside the 32-band window are **clipped** into the tail (or
  head) bucket, losing ordering but never correctness (§5.5 / Figure 6b).

Each slot is a vertex word and a distance word.  The distance is written
through a float64 view of the arena, so the word holds its float64 bit
pattern, and the same storage serves int- and float-weighted graphs
(like the artifact's single GR payload word).  The metadata a writer
touches — ``resv``, each bucket's WCC array and its block table — lives
in ``array('q')`` buffers, so the native publish call of
:mod:`repro.native` updates it in place through one
:class:`~repro.native.QueueCtx` and Python indexes the same buffers;
:meth:`BucketQueue.refresh_native` re-points that context wherever a
buffer can move (block allocation, bucket rotation).  ``read`` is one
too, as the MTB compares it with ``resv`` whole.  The other counters are
Python ints: every protocol operation touches a handful of values, where
NumPy's per-call dispatch would cost more than the work.  For the same
reason the queue updates its own counters in place and counts each
``atomicAdd`` and ``__threadfence`` straight into the shared
``SimMemory.stats``.

A worker reads its assignment through :meth:`BucketQueue.read_runs`
(the native relax kernel reads the arena in place, by address) or
:meth:`BucketQueue.read_items` (lists, for the Python reference); both
do the same accounting.  It publishes its winners in one pass: they are
banded, clipped and split into per-bucket groups in ascending physical
slot, and each group then takes one reserve → write → fence → WCC
sequence.  Natively that is one ``publish_groups`` call of
:mod:`repro.native` per batch, which stops at a reservation not yet
backed by a block and resumes after the worker's capacity wait; the
worker then adds the call's counts to the queue's (see
:mod:`repro.core.wtb`).  The Python reference is
:meth:`BucketQueue.push_groups` over one :meth:`~BucketQueue.rel_bands_list`
call (the same band rule, bit for bit), then :meth:`~BucketQueue.reserve`
and :meth:`~BucketQueue.publish` per group; it is the path whenever a
checker or tracer is attached, as their hooks live on those two
methods.  The split is the bucket split of GPU Multisplit (Ashkiani et
al., arXiv:1701.01189): a counting pass, then a stable scatter.
"""

from __future__ import annotations

from array import array
from math import floor
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro import native
from repro.core.block_alloc import BucketStorage, TranslationCache
from repro.core.config import AddsConfig
from repro.errors import ProtocolError
from repro.gpu.memory import GlobalPool, SimMemory
from repro.trace.tracer import NULL_TRACER, Tracer

__all__ = ["BucketQueue"]


class BucketQueue:
    """The ADDS work queue: 32 circular buckets plus their metadata."""

    def __init__(
        self,
        mem: SimMemory,
        pool: GlobalPool,
        config: AddsConfig,
        *,
        initial_delta: float,
    ) -> None:
        if not initial_delta > 0:
            raise ProtocolError("initial delta must be positive")
        n_buckets = config.n_buckets
        self.mem = mem
        self.pool = pool
        self.config = config
        self.n_buckets = n_buckets
        self.segment_size = config.segment_size

        # shared metadata (global memory on the real device), one word
        # per bucket; never replaced, as self.native holds resv's address
        self.resv = array("q", bytes(8 * n_buckets))
        self.read = array("q", bytes(8 * n_buckets))
        self.cwc = [0] * n_buckets
        # Bucket reuse epoch: the simulator's stand-in for the monotonic
        # 32-bit circular index.  A completion that arrives after its
        # bucket was recycled (possible only under unsafe_rotation) is
        # dropped from the recycled bucket's CWC but still counts globally.
        self.epoch = [0] * n_buckets
        # Per-bucket segment WCC counters, indexed by segment number;
        # ensure_capacity grows each to cover its bucket's capacity.
        self.wcc: List[array] = [array("q") for _ in range(n_buckets)]
        self.storage = [
            BucketStorage(pool, config.slots_per_block, name=f"b{i}")
            for i in range(n_buckets)
        ]
        # where the native publish call finds that metadata
        self._bucket_addrs = array("q", bytes(32 * n_buckets))
        self.native = native.QueueCtx(
            n_buckets=n_buckets, segment_size=self.segment_size,
            slots_per_block=config.slots_per_block,
            words_per_block=pool.words_per_block,
            resv=self.resv.buffer_info()[0],
            bucket=self._bucket_addrs.buffer_info()[0],
        )
        for slot in range(n_buckets):
            self.refresh_native(slot)
        self.mtb_cache = TranslationCache()
        # Wake-channel keys for capacity waiters, one per bucket; WTBs
        # register on cap_keys[slot] and ensure_capacity notifies it.
        self.cap_keys = tuple(("cap", s) for s in range(n_buckets))
        self._device = None

        # priority window state (owned by the MTB)
        self.head = 0
        self.base_dist = 0.0
        self.delta = float(initial_delta)
        self.rotations = 0

        # counters feeding termination and the Δ controller
        self.total_pushed = 0
        self.total_completed = 0
        self.pushes_since_check = 0
        self.tail_pushes_since_check = 0
        self.low_clips = 0
        self.high_clips = 0

        # observability (zero-cost unless attach_tracer enables it)
        self._tracer: Tracer = NULL_TRACER
        self._clock: Callable[[], float] = lambda: 0.0
        # dynamic protocol checker (repro.check); one branch per op when
        # detached, full SRMW invariant enforcement when attached
        self._checker = None

    def refresh_native(self, slot: int) -> None:
        """Point :attr:`native` at bucket ``slot``'s WCC array and block
        table, and at the pool's arena, after any of them may have
        moved."""
        addrs = self._bucket_addrs
        i = 4 * slot
        addrs[i], addrs[i + 1] = self.wcc[slot].buffer_info()
        addrs[i + 2], addrs[i + 3] = self.storage[slot].table.buffer_info()
        self.native.pool = self.pool.address

    def attach_tracer(
        self, tracer: Optional[Tracer], clock: Callable[[], float]
    ) -> None:
        """Emit bucket push/pop/rotate events on the ``queue`` track.

        ``clock`` supplies the simulated time in µs (the queue itself has
        no device reference; the ADDS solver wires it to
        ``device.now_us``)."""
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._clock = clock

    def attach_checker(self, checker) -> None:
        """Route every protocol operation through a
        :class:`repro.check.ProtocolChecker` (or None to detach).

        The checker learns who performed each operation from the bound
        device's :meth:`~repro.gpu.device.Device.current_block_name`, so
        attach it via :meth:`ProtocolChecker.attach`, which wires both
        sides."""
        self._checker = checker

    def bind_device(self, device) -> None:
        """Wire capacity-channel notifications to ``device.notify``.

        Without a bound device the queue still works — capacity waiters
        just fall back to the engine's rescue rescan (tests exercising
        the queue standalone rely on this)."""
        self._device = device

    # ------------------------------------------------------------------ #
    # priority-band mapping
    # ------------------------------------------------------------------ #

    def rel_bands_list(self, dists: Sequence[float]) -> list:
        """Band index (0 = head) for each distance, with clipping.

        Below-window distances clip to the head band (work spawned for an
        already-rotated band, §5.4); beyond-window distances clip to the
        tail band (Figure 6(b)).  Clip counts feed the Δ controller.

        Takes a list of floats (the WTB's pushes) or a float64 array.
        Python's float ``//`` is the same fmod-corrected floor division
        as ``np.floor_divide`` (both differ from ``floor(a/b)`` at band
        boundaries), so the bands match the NumPy kernel bit for bit.
        The quotient is already integral, so ``math.floor`` converts it
        exactly, and faster than ``int()``.  A Δ so small that a
        quotient overflows to infinity clips like any out-of-window one.
        """
        if isinstance(dists, np.ndarray):
            dists = dists.tolist()
        base = self.base_dist
        delta = self.delta
        limit = self.n_buckets - 1
        try:
            out = [floor((d - base) // delta) for d in dists]
        except OverflowError:
            # a Δ so small that a quotient is infinite: bound every
            # quotient just outside the window, so it clips below
            out = [
                int(min(max((d - base) // delta, -1.0), limit + 1.0))
                for d in dists
            ]
        if out and (min(out) < 0 or max(out) > limit):
            for i, r in enumerate(out):
                if r < 0:
                    self.low_clips += 1
                    out[i] = 0
                elif r > limit:
                    self.high_clips += 1
                    out[i] = limit
        return out

    def push_groups(self, vertices: Sequence[int], dist) -> Sequence[tuple]:
        """Split one batch of pushes by destination bucket, in one pass.

        Reads each vertex's distance from ``dist`` (indexed by vertex) at
        call time, bands the batch with one :meth:`rel_bands_list` call
        (the one band rule, clip counts included) and returns
        ``(slot, vertices, dists)`` groups in ascending physical slot —
        the order a writer reserves and publishes in, which the protocol
        can observe.  Items keep their input order inside a group.  A
        batch that falls in one band comes back as one group without
        being split.  The warm-start seed and the Python reference path
        split through here; the native ``publish_groups`` of
        :mod:`repro.native` is held to it, with the writer path after it,
        bit for bit.
        """
        dists = [dist[u] for u in vertices]
        if not dists:
            return ()
        rel = self.rel_bands_list(dists)
        head = self.head
        nb = self.n_buckets
        r0 = rel[0]
        if rel.count(r0) == len(rel):
            return (((head + r0) % nb, vertices, dists),)
        groups: dict = {}
        for u, d, r in zip(vertices, dists, rel):
            group = groups.get(r)
            if group is None:
                groups[r] = ([u], [d])
            else:
                group[0].append(u)
                group[1].append(d)
        # physical slots are distinct, so the sort never compares lists
        return sorted(((head + r) % nb, vs, ds) for r, (vs, ds) in groups.items())

    # ------------------------------------------------------------------ #
    # writer (WTB) side
    # ------------------------------------------------------------------ #

    def reserve(self, slot: int, k: int) -> int:
        """Atomically reserve ``k`` slots; returns the starting index."""
        if k <= 0:
            raise ProtocolError("reserve of non-positive count")
        resv = self.resv
        start = resv[slot]
        resv[slot] = start + k
        self.mem.stats.atomics += 1  # the atomicAdd on resv_ptr
        self.total_pushed += k
        self.pushes_since_check += k
        if (slot - self.head) % self.n_buckets == self.n_buckets - 1:
            self.tail_pushes_since_check += k
        if self._checker is not None:
            self._checker.on_reserve(slot, start, k)
        return start

    def ensure_capacity(self, slot: int, slots: int) -> int:
        """Grow a bucket's block table, and its WCC array with it, to
        ``slots`` (MTB allocator path).

        Returns blocks added; growth notifies the bucket's capacity wake
        channel so a WTB stalled on an unbacked reservation re-checks.
        """
        if self._checker is not None:
            self._checker.on_ensure_capacity(slot)
        storage = self.storage[slot]
        if slots <= storage.capacity:
            return 0
        added = storage.ensure_capacity(slots)
        wcc = self.wcc[slot]
        short = -(-storage.capacity // self.segment_size) - len(wcc)
        if short > 0:
            wcc.frombytes(bytes(8 * short))
        self.refresh_native(slot)
        if self._device is not None:
            self._device.notify(self.cap_keys[slot])
        return added

    def publish(
        self, slot: int, start: int, vertices: Sequence[int], dists: Sequence[float]
    ) -> int:
        """Write reserved slots, fence, bump segment WCCs (§5.2 writer path).

        Returns the number of segments touched (for cost accounting).
        """
        k = len(vertices)
        if k == 0:
            return 0
        if self._checker is not None:
            # before the write: a publish outside the writer's own
            # reservation must fail before it corrupts storage
            self._checker.on_publish(slot, int(start), k)
        ss = self.segment_size
        first = start // ss
        last = (start + k - 1) // ss
        wcc = self.wcc[slot]
        if last >= len(wcc):
            raise ProtocolError(f"bucket {slot}: segment {last} has no WCC")
        self.storage[slot].write_range(start, vertices, dists)
        stats = self.mem.stats
        stats.fences += 1  # items fully written before WCC increments
        # one atomicAdd per touched segment: partial ends, full middle
        stats.atomics += last - first + 1
        lo = start
        end = start + k
        for seg in range(first, last + 1):
            hi = min(end, (seg + 1) * ss)
            count = wcc[seg] = wcc[seg] + hi - lo
            if count > ss:
                raise ProtocolError(
                    f"bucket {slot}: segment {seg} WCC {count} exceeds N"
                )
            lo = hi
        if self._tracer.enabled:
            self._tracer.instant(
                "queue", "bucket_push", self._clock(), cat="queue",
                bucket=slot, rel=(slot - self.head) % self.n_buckets, items=k,
            )
            self._tracer.counter(
                "queue_outstanding", self._clock(), self.outstanding()
            )
        return last - first + 1

    def complete(self, slot: int, k: int, epoch: int) -> None:
        """WTB finished ``k`` assigned items: bump the bucket's CWC.

        ``epoch`` is the bucket epoch captured at assignment time; a
        mismatch (bucket recycled meanwhile — unsafe rotation only) drops
        the per-bucket update but keeps the global completion count sound.
        """
        if k < 0:
            raise ProtocolError("negative completion count")
        if self._checker is not None:
            self._checker.on_complete(slot, k, epoch)
        stats = self.mem.stats
        stats.fences += 1  # spawned pushes visible before the CWC update
        if self.epoch[slot] == epoch:
            stats.atomics += 1
            self.cwc[slot] += k
        self.total_completed += k

    # ------------------------------------------------------------------ #
    # reader (MTB) side
    # ------------------------------------------------------------------ #

    def readable_upper(self, slot: int) -> Tuple[int, int]:
        """§5.2's readable-range computation.

        Returns ``(upper, segments_scanned)``: all slots in
        ``[read_ptr, upper)`` are guaranteed fully written.
        """
        r = self.read[slot]
        stats = self.mem.stats
        stats.fences += 1
        resv = self.resv[slot]
        if r >= resv:
            return r, 0
        ss = self.segment_size
        wcc = self.wcc[slot]
        n_wcc = len(wcc)
        seg0 = r // ss
        # The leading run of fully-written segments is safe wholesale; a
        # reservation-only segment past the WCC list's extent counts 0.
        stop = min(-(-resv // ss), n_wcc)  # ceil(resv / ss), clamped
        seg = seg0
        while seg < stop and wcc[seg] == ss:
            seg += 1
        scanned = seg - seg0
        upper = max(r, seg * ss)
        if upper < resv:
            # partial segment: trust it only if WCC accounts for every
            # reservation made in it (re-read resv after a fence so the
            # comparison is not against a stale pointer)
            scanned += 1
            count = wcc[seg] if seg < n_wcc else 0
            stats.fences += 1
            resv = self.resv[slot]
            if seg * ss + count == resv and resv > upper:
                upper = resv
        if upper > resv:
            raise ProtocolError(
                f"bucket {slot}: readable upper {upper} beyond resv {resv}"
            )
        if self._checker is not None:
            self._checker.on_readable_upper(slot, int(r), int(upper))
        return upper, scanned

    def advance_read(self, slot: int, upto: int) -> None:
        if upto < self.read[slot]:
            raise ProtocolError("read_ptr may not move backwards")
        if self._checker is not None:
            self._checker.on_advance_read(slot, int(upto))
        self.read[slot] = upto

    def read_items(self, slot: int, start: int, end: int) -> Tuple[list, list]:
        """Fetch items (vertices, distances) from a readable range, as
        lists of Python ints and floats."""
        return self._read(slot, start, end).read_range(start, end)

    def read_runs(self, slot: int, start: int, end: int, out) -> int:
        """:meth:`read_items` for a kernel that reads the arena in place:
        the range goes into ``out`` as ``(address, count)`` runs
        (:meth:`~repro.core.block_alloc.BucketStorage.address_runs`);
        returns the number of runs."""
        return self._read(slot, start, end).address_runs(start, end, out)

    def _read(self, slot: int, start: int, end: int) -> BucketStorage:
        """The accounting of a read: the checker's hook, the translation
        cache and the trace instant.  Returns the bucket's storage."""
        if self._checker is not None:
            self._checker.on_read(slot, int(start), int(end))
        storage = self.storage[slot]
        spb = storage.slots_per_block
        access = self.mtb_cache.access
        for vb in range(start // spb, max(start, end - 1) // spb + 1):
            access(vb)
        if self._tracer.enabled:
            self._tracer.instant(
                "queue", "bucket_pop", self._clock(), cat="queue",
                bucket=slot, rel=(slot - self.head) % self.n_buckets,
                items=end - start,
            )
        return storage

    def bucket_drained(self, slot: int) -> bool:
        """Everything reserved has been read *and* completed."""
        resv = self.resv[slot]
        if self.read[slot] != resv:
            return False
        self.mem.stats.fences += 1
        return self.cwc[slot] == self.resv[slot]

    def bucket_read_out(self, slot: int) -> bool:
        """Everything reserved has been read (completion not required)."""
        return self.read[slot] == self.resv[slot]

    def rotate(self) -> None:
        """Recycle the head bucket as the new farthest band (§5.4).

        The checker sees the pre-rotation counters first, so it can
        diagnose an unsafe rotation precisely; then the §5.4 guards, then
        the reset.
        """
        slot = self.head
        if self._checker is not None:
            self._checker.on_rotate(slot)
        if not self.bucket_read_out(slot):
            raise ProtocolError("rotation with unread work in the head bucket")
        if not self.config.unsafe_rotation and self.cwc[slot] != self.resv[slot]:
            raise ProtocolError(
                "rotation before the head bucket's CWC matched resv_ptr"
            )
        # CWC may lag resv under unsafe rotation; the epoch bump reroutes
        # those late completions to the global counter only.
        self.storage[slot].reset()
        self.wcc[slot] = array("q", bytes(8 * len(self.wcc[slot])))
        self.refresh_native(slot)
        self.resv[slot] = 0
        self.read[slot] = 0
        self.cwc[slot] = 0
        self.epoch[slot] += 1
        self.head = (slot + 1) % self.n_buckets
        self.base_dist += self.delta
        self.rotations += 1
        if self._tracer.enabled:
            self._tracer.instant(
                "queue", "rotate", self._clock(), cat="queue",
                new_head=self.head, base_dist=self.base_dist,
                rotation=self.rotations,
            )

    def retire_read_blocks(self, slot: int) -> int:
        """Free whole blocks below both read_ptr and CWC (FIFO shrink)."""
        if self._checker is not None:
            self._checker.on_retire(slot)
        storage = self.storage[slot]
        read = self.read[slot]
        cwc = self.cwc[slot]
        safe = read if read < cwc else cwc
        if safe < storage.retire_at:
            return 0
        return storage.retire_below(safe)

    # ------------------------------------------------------------------ #
    # controller hooks
    # ------------------------------------------------------------------ #

    def set_delta(self, new_delta: float) -> None:
        if not new_delta > 0:
            raise ProtocolError("delta must stay positive")
        self.delta = float(new_delta)

    def reset_push_window(self) -> None:
        self.pushes_since_check = 0
        self.tail_pushes_since_check = 0

    def tail_push_fraction(self) -> float:
        if self.pushes_since_check == 0:
            return 0.0
        return self.tail_pushes_since_check / self.pushes_since_check

    def outstanding(self) -> int:
        """Items pushed but not yet completed (device-wide)."""
        return self.total_pushed - self.total_completed
