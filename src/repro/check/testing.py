"""Protocol fault injection — proof the checker actually catches bugs.

A sanitizer that has never seen a bug is untested tooling.  Mirroring
:mod:`repro.engine.testing` (whose fault *solvers* exercise the engine's
failure paths), this module injects protocol-level faults into a live
solve and the test suite asserts each one is caught by the invariant it
targets.

:class:`FaultyChecker` is a :class:`~repro.check.ProtocolChecker` that
sabotages the queue/device it attaches to — the checker itself stays
honest; the *system under check* is what breaks.  Pass a factory to
:func:`repro.check.run_check` (or ``--inject`` on the CLI) to watch a
clean run fail:

========================= ============================================
fault                     invariant that catches it
========================= ============================================
``publish-overlap``       ``publish-bounds`` — a writer's reservation
                          is off by one, so it publishes into slots a
                          different writer reserved.
``phantom-wcc``           ``fence-visibility`` — a writer bumps a
                          segment WCC for a slot it never wrote (the
                          missing-fence bug class): the reader's
                          readable range covers garbage.
``lost-wakeup``           ``no-lost-work`` — STOP notifications are
                          dropped on the floor; workers survive only
                          via the deadlock rescue, so
                          ``missed_wakeups`` is nonzero at finalize.
``dist-raise``            ``dist-monotone`` — a raw (non-atomic) write
                          increases a settled distance.
========================= ============================================
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.check.invariants import ProtocolChecker
from repro.core.wtb import AF_STOP
from repro.errors import ReproError

__all__ = ["FAULTS", "FaultyChecker"]


def _install_publish_overlap(checker, device, queue, state) -> None:
    orig = queue.reserve
    box = {"calls": 0, "fired": False}

    def faulty_reserve(slot: int, k: int) -> int:
        start = orig(slot, k)
        box["calls"] += 1
        if not box["fired"] and box["calls"] >= 6 and start >= 1:
            box["fired"] = True
            return start - 1  # lie: the writer now targets foreign slots
        return start

    queue.reserve = faulty_reserve


def _install_phantom_wcc(checker, device, queue, state) -> None:
    orig = queue.publish
    box = {"fired": False}

    def faulty_publish(slot: int, start: int, vertices, dists) -> int:
        if not box["fired"] and len(vertices) >= 2:
            box["fired"] = True
            k = len(vertices)
            # write all but the last item, then bump the last item's
            # segment WCC anyway — the classic increment-before-fence bug
            segs = orig(slot, start, vertices[:-1], dists[:-1])
            ss = queue.segment_size
            seg = (start + k - 1) // ss
            queue.mem.atomic_add(queue.wcc[slot], seg, 1)
            return segs
        return orig(slot, start, vertices, dists)

    queue.publish = faulty_publish


def _install_lost_wakeup(checker, device, queue, state) -> None:
    orig = device.notify

    def faulty_notify(channel) -> None:
        if (
            isinstance(channel, tuple)
            and len(channel) == 2
            and channel[0] == "af"
            and state is not None
            and state.af_state[channel[1]] == AF_STOP
        ):
            return  # the STOP write's notification is lost
        orig(channel)

    device.notify = faulty_notify


def _install_dist_raise(checker, device, queue, state) -> None:
    orig = queue.complete
    box = {"calls": 0}

    def faulty_complete(slot: int, k: int, epoch: int) -> None:
        orig(slot, k, epoch)
        box["calls"] += 1
        if box["calls"] == 4 and state is not None:
            dist = state.dist
            finite = np.isfinite(dist) & (dist > 0)
            if finite.any():
                v = int(np.argmax(finite))
                dist[v] += 1.0  # raw write racing atomic_min

    queue.complete = faulty_complete


#: fault name -> installer(checker, device, queue, state)
FAULTS: Dict[str, object] = {
    "publish-overlap": _install_publish_overlap,
    "phantom-wcc": _install_phantom_wcc,
    "lost-wakeup": _install_lost_wakeup,
    "dist-raise": _install_dist_raise,
}


class FaultyChecker(ProtocolChecker):
    """A checker that sabotages the solve it attaches to.

    The sabotage targets the queue/device (never the checker's own
    bookkeeping), so a caught fault demonstrates real detection, not a
    rigged assertion.  Use one fresh instance per solve, like the base
    class.
    """

    def __init__(self, fault: str) -> None:
        if fault not in FAULTS:
            raise ReproError(
                f"unknown fault {fault!r}; choose from {sorted(FAULTS)}"
            )
        super().__init__()
        self.fault = fault

    def attach(self, *, device, queue, state=None) -> None:
        super().attach(device=device, queue=queue, state=state)
        FAULTS[self.fault](self, device, queue, state)
