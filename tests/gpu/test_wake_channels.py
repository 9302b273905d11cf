"""Wake-channel semantics: targeted wakeups must be observationally
identical to the predicate-rescan engine they replaced.

The deterministic MTB/WTB interleaving test below pins down the three
things the rescan engine guaranteed — resume order (registration order
among simultaneously-satisfied waiters), the af_poll charge on every
channel resume, and trace span order — plus the failure modes: spurious
notifies, missed notifies (rescued, counted), and deadlock detection with
the same ``DeviceError``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DeviceError
from repro.gpu import Device, RTX_2080TI
from repro.gpu.costmodel import CostModel
from repro.trace.tracer import Tracer


def make_device(**kw):
    return Device(RTX_2080TI, **kw)


class TestTargetedWakeups:
    def test_notify_wakes_only_the_target_channel(self):
        flags = np.zeros(2, dtype=np.int64)
        evals = {"a": 0, "b": 0}
        order = []

        def waiter(dev, key, idx):
            def pred():
                evals[key] += 1
                return flags[idx] == 1
            yield ("wait", pred, ("ch", key))
            order.append(key)

        def writer(dev):
            yield ("busy", 100)
            flags[0] = 1
            dev.notify(("ch", "a"))
            yield ("busy", 100)
            flags[1] = 1
            dev.notify(("ch", "b"))

        d = make_device()
        d.add_block("wa", waiter(d, "a", 0))
        d.add_block("wb", waiter(d, "b", 1))
        d.add_block("writer", writer(d))
        d.run()
        assert order == ["a", "b"]
        # one failed evaluation at registration + one successful on its
        # own notify — and crucially NOT one per event in the run
        assert evals == {"a": 2, "b": 2}
        assert d.spurious_wakeups == 0

    def test_simultaneous_waiters_wake_in_registration_order(self):
        flag = np.zeros(1, dtype=np.int64)
        order = []

        def waiter(name):
            yield ("wait", lambda: flag[0] == 1, "gate")
            order.append(name)

        def writer(dev):
            yield ("busy", 50)
            flag[0] = 1
            dev.notify("gate")

        d = make_device()
        # registration order is add order (they all register at t=0)
        for name in ("w2", "w0", "w1"):
            d.add_block(name, waiter(name))
        d.add_block("writer", writer(d))
        d.run()
        assert order == ["w2", "w0", "w1"]

    def test_channel_resume_charges_af_poll(self):
        flag = np.zeros(1, dtype=np.int64)
        woke_at = []

        def waiter(dev):
            yield ("wait", lambda: flag[0] == 1, "gate")
            woke_at.append(dev.now)

        def writer(dev):
            yield ("busy", 300)
            flag[0] = 1
            dev.notify("gate")

        d = make_device()
        w = d.add_block("w", waiter(d))
        d.add_block("writer", writer(d))
        d.run()
        # the notify lands at t=300; the waiter resumes one poll later
        assert woke_at == [pytest.approx(300 + d.cost.af_poll_cycles)]
        assert w.idle_cycles == pytest.approx(300)
        assert d.wakeups == 1

    def test_spurious_notify_is_counted_not_resumed(self):
        flag = np.zeros(1, dtype=np.int64)
        order = []

        def waiter():
            yield ("wait", lambda: flag[0] == 2, "gate")
            order.append("woke")

        def writer(dev):
            yield ("busy", 10)
            flag[0] = 1  # not what the waiter wants
            dev.notify("gate")
            order.append("first notify")
            yield ("busy", 10)
            flag[0] = 2
            dev.notify("gate")
            order.append("second notify")

        d = make_device()
        d.add_block("w", waiter())
        d.add_block("writer", writer(d))
        d.run()
        assert order == ["first notify", "second notify", "woke"]
        assert d.spurious_wakeups == 1
        assert d.wakeups == 1

    def test_notify_without_waiters_is_a_cheap_no_op(self):
        def writer(dev):
            yield ("busy", 5)
            dev.notify("nobody-home")

        d = make_device()
        d.add_block("writer", writer(d))
        d.run()
        assert d.wakeups == 0
        assert d.spurious_wakeups == 0
        assert not d.has_waiters("nobody-home")


class TestMtbWtbInterleaving:
    """A miniature MTB/WTB protocol with fully deterministic timing."""

    @staticmethod
    def _build(tracer=None):
        # af[w] == 1 means "assigned"; af[w] == 2 means STOP
        af = np.zeros(2, dtype=np.int64)
        log = []

        def mtb(dev):
            yield ("busy", 100)
            af[0] = 1
            dev.notify(("af", 0))
            log.append(("assign", 0, dev.now))
            yield ("busy", 100)
            af[1] = 1
            dev.notify(("af", 1))
            log.append(("assign", 1, dev.now))
            yield ("busy", 400)
            af[:] = 2
            dev.notify(("af", 0))
            dev.notify(("af", 1))
            log.append(("stop", None, dev.now))

        def wtb(dev, w):
            while True:
                yield ("wait", lambda: af[w] != 0, ("af", w))
                if af[w] == 2:
                    log.append(("exit", w, dev.now))
                    return
                log.append(("work", w, dev.now))
                yield ("busy", 50)
                af[w] = 0

        # a small poll cost keeps the golden schedule readable (the
        # default 400 cycles would reorder wakeups past later assigns)
        cost = CostModel(RTX_2080TI, af_poll_cycles=10.0)
        d = Device(RTX_2080TI, cost, tracer=tracer)
        d.add_block("MTB", mtb(d))
        d.add_block("WTB0", wtb(d, 0))
        d.add_block("WTB1", wtb(d, 1))
        return d, log

    def test_event_order_matches_rescan_engine(self):
        d, log = self._build()
        d.run()
        poll = d.cost.af_poll_cycles
        # the rescan engine produced exactly this schedule: each WTB
        # resumes one af_poll after its assignment lands, works 50
        # cycles, then re-blocks; STOP at t=600 releases both in
        # registration order at 600 + poll.
        assert log == [
            ("assign", 0, 100.0),
            ("work", 0, pytest.approx(100 + poll)),
            ("assign", 1, 200.0),
            ("work", 1, pytest.approx(200 + poll)),
            ("stop", None, 600.0),
            ("exit", 0, pytest.approx(600 + poll)),
            ("exit", 1, pytest.approx(600 + poll)),
        ]
        assert d.wakeups == 4
        assert d.spurious_wakeups == 0
        assert d.missed_wakeups == 0

    def test_trace_span_order_is_stable(self):
        tracer = Tracer()
        d, _log = self._build(tracer=tracer)
        d.run()
        # every wait that actually blocked produced one idle span, in
        # wake order — WTB0's assignment, WTB1's, then both STOP waits
        idle = [
            (ev.track, ev.ts_us) for ev in tracer.events
            if ev.name == "idle"
        ]
        assert [t for t, _ in idle] == ["WTB0", "WTB1", "WTB0", "WTB1"]
        starts = [ts for _, ts in idle]
        assert starts[0] == pytest.approx(0.0)  # WTB0 blocked at t=0
        assert starts[1] == pytest.approx(0.0)  # so did WTB1
        # wakeup counters were exported for the trace viewer
        assert tracer.by_name("wakeups")
        assert tracer.by_name("spurious_wakeups")

    def test_unnotified_flag_write_is_rescued_and_counted(self):
        af = np.zeros(1, dtype=np.int64)

        def buggy_mtb(dev):
            yield ("busy", 100)
            af[0] = 2  # writer "forgot" dev.notify(("af", 0))

        def wtb(dev):
            yield ("wait", lambda: af[0] != 0, ("af", 0))

        d = make_device()
        d.add_block("MTB", buggy_mtb(d))
        d.add_block("WTB0", wtb(d))
        d.run()  # completes despite the missing notify
        assert d.missed_wakeups == 1
        assert d.wake_stats()["missed_wakeups"] == 1

    def test_unsatisfied_waiter_stays_on_its_channel_after_rescue(self):
        # The rescue rescan wakes WTB0 (its writer forgot to notify) and
        # leaves WTB1 registered on ("af", 1): WTB1 then wakes through an
        # ordinary notify, and only WTB0 counts as a missed wakeup.
        af = np.zeros(2, dtype=np.int64)
        log = []

        def buggy_mtb(dev):
            yield ("busy", 100)
            af[0] = 1  # writer "forgot" dev.notify(("af", 0))

        def wtb0(dev):
            yield ("wait", lambda: af[0] != 0, ("af", 0))
            log.append(("rescued", dev.now, dev.has_waiters(("af", 1))))
            yield ("busy", 50)
            af[1] = 1
            dev.notify(("af", 1))

        def wtb1(dev):
            yield ("wait", lambda: af[1] != 0, ("af", 1))
            log.append(("notified", dev.now))

        d = make_device()
        d.add_block("MTB", buggy_mtb(d))
        d.add_block("WTB0", wtb0(d))
        d.add_block("WTB1", wtb1(d))
        d.run()
        poll = d.cost.af_poll_cycles
        assert log == [
            ("rescued", pytest.approx(100 + poll), True),
            ("notified", pytest.approx(100 + poll + 50 + poll)),
        ]
        assert d.missed_wakeups == 1
        assert d.wakeups == 2


class TestDeadlock:
    def test_channel_waiters_deadlock_lists_blocks_in_order(self):
        def forever(key):
            yield ("wait", lambda: False, key)

        d = make_device()
        d.add_block("stuck-a", forever("ka"))
        d.add_block("stuck-b", forever("kb"))
        with pytest.raises(
            DeviceError,
            match=r"deadlock: blocks waiting forever: stuck-a, stuck-b",
        ):
            d.run()
