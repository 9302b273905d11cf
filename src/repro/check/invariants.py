"""Dynamic invariant checker for the SRMW bucket-queue protocol.

The paper's correctness argument (§5.2–5.4) is a discipline: WTBs are the
*only writers* into a bucket, each confined to slots it atomically
reserved; the MTB is the *only reader*, trusting a slot only once the
writer's publishing fence has provably executed (the segment-WCC proof);
distances move only downward through ``atomic_min``; and the head bucket
recycles only after everything in it was read *and* completed.  The
simulator's queue enforces a few of these locally (``ProtocolError``
guards), but nothing watches the *protocol* — the cross-block sequencing
a perturbed schedule can break.

:class:`ProtocolChecker` is that watcher.  One fresh instance attaches to
one solve (``solve_adds(..., checker=ProtocolChecker())``); the queue,
the MTB and the WTBs (relax batches included) call back into it on every
protocol operation, and any violation raises
:class:`~repro.errors.InvariantViolation` immediately — schedule, seed
and cycle included, so ``repro check`` can replay the exact failure.

Invariants (the bracketed tag opens every violation message):

``srmw-role``
    Only the reader block computes readable ranges, advances ``read``,
    rotates or manages storage; the reader never reserves, publishes or
    completes.  Host-side code (the solver seeding the source before the
    kernel launches) is neither and may do both.
``resv-overlap``
    Reservations in a bucket epoch are contiguous and disjoint — no two
    writers ever hold overlapping slots.
``publish-bounds``
    A writer publishes only slots inside one of its own outstanding
    reservations, and no slot is published twice in an epoch.
``fence-visibility``
    The reader's computed readable upper never covers an unpublished
    slot (a WCC advertising a write whose fence did not run), the read
    pointer never advances past a verified upper, and every item read
    lies in published, read-claimed storage of the assignment's epoch.
``assign-claim``
    What a WTB claims from its assignment flag is exactly what the MTB
    published to it, in the epoch it was made; completions match the
    claimed assignment.
``dist-monotone``
    The shared distance array never increases between two protocol
    operations, and each WTB relax batch (reported through
    :meth:`ProtocolChecker.on_atomic_min_batch`) stores true minima with
    at most one winning entry per index.
``rotate-guard``
    The head rotates only once fully read, published and completed —
    the §5.4 CWC guard (``unsafe_rotation`` trips this).
``no-lost-work``
    At :meth:`finalize`: reserved == published == read == completed
    totals, no outstanding reservations or assignments, the queue
    reports nothing in flight, and ``missed_wakeups == 0`` (every wake
    arrived through its channel, none via the deadlock rescue).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import InvariantViolation

__all__ = ["ProtocolChecker"]

#: Name under which host-side (non-block) protocol operations are tracked.
_HOST = "<host>"


class ProtocolChecker:
    """Asserts SRMW protocol invariants while one ADDS solve runs.

    The checker is pull-free: it holds mirrors of the protocol state
    (published coverage, reservation high-water marks, outstanding
    assignments) updated purely from the hook calls, then cross-checks
    the queue's own metadata against them.  All hooks are no-ops unless
    an instance is attached, and the queue/memory fast paths pay one
    ``is not None`` test when it is not.

    Writer identity comes from :meth:`Device.current_block_name` —
    ``None`` (host code) is exempt from role checks, matching the
    solver's host-side seeding of the source vertex.
    """

    #: The single reader block's name (``solve_adds`` registers it so).
    reader_name = "MTB"

    def __init__(self) -> None:
        self.device = None
        self.queue = None
        self.state = None
        self.violations: List[str] = []
        #: Hook invocations observed (reporting; proves the checker ran).
        self.checked_ops = 0
        self.reserved_total = 0
        self.published_total = 0
        self.read_total = 0
        self.completed_total = 0
        # per-bucket mirrors, sized at attach
        self._pub: List[np.ndarray] = []
        self._hwm: List[int] = []
        self._upper: List[int] = []
        # writer name -> outstanding (unpublished) [slot, start, end)
        self._resv_out: Dict[str, List[list]] = {}
        # "WTB<w>" -> (slot, start, end, epoch) of the live assignment
        self._assigned: Dict[str, Tuple[int, int, int, int]] = {}
        self._dist_snap: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #

    def attach(self, *, device, queue, state=None) -> None:
        """Bind to one solve: hooks into the queue and the solver state.

        Call before the solver seeds the source so the seed's host-side
        reserve/publish is accounted like any other writer's.
        """
        if self.device is not None:
            raise InvariantViolation(
                "a ProtocolChecker instance checks exactly one solve; "
                "construct a fresh one per run"
            )
        self.device = device
        self.queue = queue
        self.state = state
        nb = queue.n_buckets
        self._pub = [np.zeros(64, dtype=bool) for _ in range(nb)]
        self._hwm = [0] * nb
        self._upper = [0] * nb
        if state is not None:
            state.checker = self
            self._dist_snap = np.array(state.dist, dtype=np.float64, copy=True)
        queue.attach_checker(self)

    def _caller(self) -> Optional[str]:
        return self.device.current_block_name() if self.device is not None else None

    def _fail(self, invariant: str, msg: str) -> None:
        dev = self.device
        if dev is not None:
            msg += f" [cycle {dev.now:.0f}, perturb_seed={dev.perturb_seed}]"
        text = f"[{invariant}] {msg}"
        self.violations.append(text)
        raise InvariantViolation(text)

    def _require_reader(self, op: str, slot: int) -> None:
        caller = self._caller()
        if caller is not None and caller != self.reader_name:
            self._fail(
                "srmw-role",
                f"{caller} performed reader-only op {op} on bucket {slot}; "
                f"only {self.reader_name} manages the read side",
            )

    def _require_writer(self, op: str, slot: int) -> Optional[str]:
        caller = self._caller()
        if caller == self.reader_name:
            self._fail(
                "srmw-role",
                f"reader {self.reader_name} performed writer op {op} on "
                f"bucket {slot}",
            )
        return caller

    def _pub_through(self, slot: int, end: int) -> np.ndarray:
        pub = self._pub[slot]
        if end > pub.size:
            grown = np.zeros(max(end, 2 * pub.size), dtype=bool)
            grown[: pub.size] = pub
            self._pub[slot] = pub = grown
        return pub

    def _check_dist(self, op: str) -> None:
        snap = self._dist_snap
        if snap is None:
            return
        dist = self.state.dist
        raised = dist > snap
        if raised.any():
            v = int(np.argmax(raised))
            self._fail(
                "dist-monotone",
                f"distance of vertex {v} increased {float(snap[v])!r} -> "
                f"{float(dist[v])!r} (observed at {op}); updates must go "
                f"through atomic_min and only decrease",
            )
        np.copyto(snap, dist)

    # ------------------------------------------------------------------ #
    # writer-side hooks (called by BucketQueue)
    # ------------------------------------------------------------------ #

    def on_reserve(self, slot: int, start: int, k: int) -> None:
        self.checked_ops += 1
        caller = self._require_writer("reserve", slot) or _HOST
        hwm = self._hwm[slot]
        if start != hwm:
            self._fail(
                "resv-overlap",
                f"bucket {slot}: {caller}'s reservation [{start},{start + k}) "
                f"does not abut the reservation high-water mark {hwm} — "
                f"resv_ptr was moved outside atomic reservation",
            )
        self._hwm[slot] = start + k
        self._resv_out.setdefault(caller, []).append([slot, start, start + k])
        self.reserved_total += k
        self._check_dist("reserve")

    def on_publish(self, slot: int, start: int, k: int) -> None:
        self.checked_ops += 1
        caller = self._require_writer("publish", slot) or _HOST
        end = start + k
        intervals = self._resv_out.get(caller)
        owned = None
        if intervals:
            for iv in intervals:
                if iv[0] == slot and iv[1] <= start and end <= iv[2]:
                    owned = iv
                    break
        if owned is None:
            self._fail(
                "publish-bounds",
                f"{caller} published [{start},{end}) in bucket {slot} outside "
                f"its own outstanding reservations — a write into another "
                f"writer's (or unreserved) slots",
            )
        # consume the published portion of the owning reservation
        if owned[1] == start and owned[2] == end:
            intervals.remove(owned)
        elif owned[1] == start:
            owned[1] = end
        elif owned[2] == end:
            owned[2] = start
        else:
            intervals.append([slot, end, owned[2]])
            owned[2] = start
        pub = self._pub_through(slot, end)
        if pub[start:end].any():
            dup = start + int(np.argmax(pub[start:end]))
            self._fail(
                "publish-bounds",
                f"bucket {slot}: slot {dup} published twice in one epoch",
            )
        pub[start:end] = True
        self.published_total += k
        self._check_dist("publish")

    def on_complete(self, slot: int, k: int, epoch: int) -> None:
        self.checked_ops += 1
        caller = self._require_writer("complete", slot)
        if caller is not None:
            rec = self._assigned.pop(caller, None)
            if rec is None:
                self._fail(
                    "assign-claim",
                    f"{caller} completed {k} items in bucket {slot} without "
                    f"a live assignment",
                )
            aslot, astart, aend, aepoch = rec
            if aslot != slot or aend - astart != k or aepoch != epoch:
                self._fail(
                    "assign-claim",
                    f"{caller} completed (bucket {slot}, k={k}, epoch {epoch}) "
                    f"but its assignment was (bucket {aslot}, "
                    f"[{astart},{aend}), epoch {aepoch})",
                )
        self.completed_total += k
        self._check_dist("complete")

    # ------------------------------------------------------------------ #
    # reader-side hooks (called by BucketQueue)
    # ------------------------------------------------------------------ #

    def on_readable_upper(self, slot: int, read: int, upper: int) -> None:
        self.checked_ops += 1
        self._require_reader("readable_upper", slot)
        if upper > read:
            pub = self._pub_through(slot, upper)
            window = pub[read:upper]
            if not window.all():
                hole = read + int(np.argmin(window))
                self._fail(
                    "fence-visibility",
                    f"bucket {slot}: readable upper {upper} covers "
                    f"unpublished slot {hole} — the WCC advertised a write "
                    f"whose publishing fence has not executed",
                )
            if upper > self._upper[slot]:
                self._upper[slot] = upper

    def on_advance_read(self, slot: int, upto: int) -> None:
        self.checked_ops += 1
        self._require_reader("advance_read", slot)
        if upto > self._upper[slot]:
            self._fail(
                "fence-visibility",
                f"bucket {slot}: read advanced to {upto} past the verified "
                f"readable upper {self._upper[slot]}",
            )

    def on_read(self, slot: int, start: int, end: int) -> None:
        self.checked_ops += 1
        self.read_total += end - start
        caller = self._caller()
        pub = self._pub_through(slot, max(end, 1))
        if end > start and not pub[start:end].all():
            hole = start + int(np.argmin(pub[start:end]))
            self._fail(
                "fence-visibility",
                f"bucket {slot}: {caller or _HOST} read unpublished slot "
                f"{hole} (range [{start},{end}))",
            )
        if caller is None or caller == self.reader_name:
            self._check_dist("read")
            return
        rec = self._assigned.get(caller)
        if rec is None:
            self._fail(
                "srmw-role",
                f"{caller} read bucket {slot} slots [{start},{end}) without "
                f"an assignment — WTBs read only ranges the MTB assigned",
            )
        aslot, astart, aend, aepoch = rec
        if (slot, start, end) != (aslot, astart, aend):
            self._fail(
                "assign-claim",
                f"{caller} read (bucket {slot}, [{start},{end})) but its "
                f"assignment is (bucket {aslot}, [{astart},{aend}))",
            )
        if self.queue is not None:
            if self.queue.epoch[slot] != aepoch:
                self._fail(
                    "fence-visibility",
                    f"{caller} read bucket {slot} in epoch "
                    f"{self.queue.epoch[slot]} but was assigned in "
                    f"epoch {aepoch} — the bucket's storage was recycled "
                    f"under the reader",
                )
            if end > self.queue.read[slot]:
                self._fail(
                    "fence-visibility",
                    f"{caller} read [{start},{end}) of bucket {slot} beyond "
                    f"the advanced read pointer "
                    f"{self.queue.read[slot]}",
                )
        self._check_dist("read")

    def on_rotate(self, slot: int) -> None:
        self.checked_ops += 1
        self._require_reader("rotate", slot)
        q = self.queue
        resv = q.resv[slot]
        rd = q.read[slot]
        cwc = q.cwc[slot]
        if rd != resv:
            self._fail(
                "rotate-guard",
                f"bucket {slot} rotated with unread work "
                f"(read {rd} < resv {resv})",
            )
        if cwc != resv:
            self._fail(
                "rotate-guard",
                f"bucket {slot} rotated with CWC {cwc} != resv {resv} — "
                f"completions outstanding (the §5.4 cramming failure)",
            )
        if self._hwm[slot] != resv:
            self._fail(
                "resv-overlap",
                f"bucket {slot}: resv_ptr {resv} disagrees with the "
                f"observed reservation total {self._hwm[slot]}",
            )
        for name, intervals in self._resv_out.items():
            for iv in intervals:
                if iv[0] == slot:
                    self._fail(
                        "no-lost-work",
                        f"bucket {slot} rotated while {name} still holds "
                        f"unpublished reservation [{iv[1]},{iv[2]})",
                    )
        self._pub[slot] = np.zeros(64, dtype=bool)
        self._hwm[slot] = 0
        self._upper[slot] = 0
        self._check_dist("rotate")

    def on_ensure_capacity(self, slot: int) -> None:
        self.checked_ops += 1
        self._require_reader("ensure_capacity", slot)

    def on_retire(self, slot: int) -> None:
        self.checked_ops += 1
        self._require_reader("retire_read_blocks", slot)

    # ------------------------------------------------------------------ #
    # MTB / WTB hooks
    # ------------------------------------------------------------------ #

    def on_assign(self, wid: int, slot: int, start: int, end: int, epoch: int) -> None:
        """MTB published (slot, [start,end), epoch) to worker ``wid``'s AF."""
        self.checked_ops += 1
        self._require_reader("assign", slot)
        name = f"WTB{wid}"
        if name in self._assigned:
            self._fail(
                "assign-claim",
                f"{name} assigned bucket {slot} [{start},{end}) while its "
                f"previous assignment {self._assigned[name]} is still live",
            )
        if end > start:
            pub = self._pub_through(slot, end)
            if not pub[start:end].all():
                hole = start + int(np.argmin(pub[start:end]))
                self._fail(
                    "fence-visibility",
                    f"MTB assigned unpublished slot {hole} of bucket {slot} "
                    f"to {name}",
                )
        self._assigned[name] = (slot, start, end, epoch)

    def on_claim(self, wid: int, slot: int, start: int, end: int, epoch: int) -> None:
        """Worker ``wid`` decoded (slot, [start,end), epoch) from its AF."""
        self.checked_ops += 1
        name = f"WTB{wid}"
        rec = self._assigned.get(name)
        if rec is None:
            self._fail(
                "assign-claim",
                f"{name} claimed bucket {slot} [{start},{end}) with no "
                f"assignment on record",
            )
        if rec != (slot, start, end, epoch):
            self._fail(
                "assign-claim",
                f"{name} claimed (bucket {slot}, [{start},{end}), epoch "
                f"{epoch}) but the MTB assigned (bucket {rec[0]}, "
                f"[{rec[1]},{rec[2]}), epoch {rec[3]}) — torn AF read",
            )

    # ------------------------------------------------------------------ #
    # relax hook (called by the WTB relax, repro.core.wtb.make_relax)
    # ------------------------------------------------------------------ #

    def on_atomic_min_batch(self, arr, indices, values, before, winners) -> None:
        self.checked_ops += 1
        after = arr[indices]
        if np.any(after > before):
            i = int(np.argmax(after > before))
            self._fail(
                "dist-monotone",
                f"atomic_min_batch increased index {int(indices[i])}: "
                f"{before[i]!r} -> {after[i]!r}",
            )
        if np.any(after > values):
            i = int(np.argmax(after > values))
            self._fail(
                "dist-monotone",
                f"atomic_min_batch stored {after[i]!r} at index "
                f"{int(indices[i])}, more than candidate {values[i]!r}",
            )
        if winners is not None and winners.any():
            widx = np.asarray(indices)[winners]
            if np.unique(widx).size != int(np.count_nonzero(winners)):
                self._fail(
                    "dist-monotone",
                    "atomic_min_batch reported two winners for one index",
                )
            if np.any(arr[widx] != np.asarray(values)[winners]):
                self._fail(
                    "dist-monotone",
                    "a winning atomic_min entry's value is not the stored "
                    "minimum",
                )

    # ------------------------------------------------------------------ #
    # end-of-run oracle
    # ------------------------------------------------------------------ #

    def finalize(self) -> Dict[str, int]:
        """The no-lost-work oracle, run after the device finishes.

        Returns the accounting totals (for reports) on success; raises
        :class:`~repro.errors.InvariantViolation` otherwise.
        """
        for name, intervals in self._resv_out.items():
            if intervals:
                iv = intervals[0]
                self._fail(
                    "no-lost-work",
                    f"{name} reserved bucket {iv[0]} slots [{iv[1]},{iv[2]}) "
                    f"and never published them",
                )
        if self._assigned:
            name = sorted(self._assigned)[0]
            self._fail(
                "no-lost-work",
                f"assignment to {name} {self._assigned[name]} was never "
                f"completed",
            )
        if not (
            self.reserved_total
            == self.published_total
            == self.read_total
            == self.completed_total
        ):
            self._fail(
                "no-lost-work",
                f"work-item conservation broken: reserved "
                f"{self.reserved_total}, published {self.published_total}, "
                f"read {self.read_total}, completed {self.completed_total}",
            )
        q = self.queue
        if q is not None and q.outstanding() != 0:
            self._fail(
                "no-lost-work",
                f"queue reports {q.outstanding()} items outstanding after "
                f"termination",
            )
        dev = self.device
        if dev is not None and dev.missed_wakeups:
            self._fail(
                "no-lost-work",
                f"{dev.missed_wakeups} waiters were rescued by the deadlock "
                f"rescan — a writer changed their predicate without "
                f"notifying its wake channel",
            )
        self._check_dist("finalize")
        return {
            "checked_ops": self.checked_ops,
            "reserved": self.reserved_total,
            "published": self.published_total,
            "read": self.read_total,
            "completed": self.completed_total,
        }
