"""Tests for the discrete-event engine: ordering, waiting, deadlock, timeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DeviceError
from repro.gpu import Device, RTX_2080TI


def make_device(**kw):
    return Device(RTX_2080TI, **kw)


class TestBasicExecution:
    def test_single_block_runs_to_completion(self):
        log = []

        def prog():
            yield ("busy", 100)
            log.append("a")
            yield ("busy", 50)
            log.append("b")

        d = make_device()
        d.add_block("p", prog())
        total = d.run()
        assert log == ["a", "b"]
        assert total == pytest.approx(150)

    def test_blocks_interleave_by_time(self):
        order = []

        def fast():
            yield ("busy", 10)
            order.append("fast1")
            yield ("busy", 10)
            order.append("fast2")

        def slow():
            yield ("busy", 15)
            order.append("slow1")

        d = make_device()
        d.add_block("f", fast())
        d.add_block("s", slow())
        d.run()
        assert order == ["fast1", "slow1", "fast2"]

    def test_now_advances_monotonically(self):
        seen = []

        def prog(dev):
            for _ in range(5):
                yield ("busy", 7)
                seen.append(dev.now)

        d = make_device()
        d.add_block("p", prog(d))
        d.run()
        assert seen == sorted(seen)
        assert seen[-1] == pytest.approx(35)

    def test_empty_program(self):
        def prog():
            return
            yield  # pragma: no cover

        d = make_device()
        d.add_block("p", prog())
        assert d.run() == 0.0

    def test_cannot_run_twice(self):
        d = make_device()
        d.add_block("p", iter([]))
        d.run()
        with pytest.raises(DeviceError):
            d.run()

    def test_cannot_add_after_run(self):
        d = make_device()
        d.run()
        with pytest.raises(DeviceError):
            d.add_block("late", iter([]))

    def test_resident_block_limit(self):
        d = make_device()
        for i in range(RTX_2080TI.max_resident_blocks):
            d.add_block(f"b{i}", iter([]))
        with pytest.raises(DeviceError, match="resident blocks"):
            d.add_block("overflow", iter([]))


class TestEventValidation:
    def test_unknown_event(self):
        def prog():
            yield ("frobnicate", 1)

        d = make_device()
        d.add_block("p", prog())
        with pytest.raises(DeviceError, match="unknown event"):
            d.run()

    def test_negative_busy(self):
        def prog():
            yield ("busy", -5)

        d = make_device()
        d.add_block("p", prog())
        with pytest.raises(DeviceError, match="negative"):
            d.run()

    def test_non_callable_wait(self):
        def prog():
            yield ("wait", 42, "k")

        d = make_device()
        d.add_block("p", prog())
        with pytest.raises(DeviceError, match="callable"):
            d.run()

    @pytest.mark.parametrize(
        "event",
        [
            ("wait", lambda: True),  # retired unkeyed wait
            ("relax", 100, 10),  # retired relax without bytes
            ("busy",),
            ("busy", 10, 20),
            ("wait", lambda: True, "k", "extra"),
        ],
        ids=["wait-unkeyed", "relax-no-bytes", "busy-short", "busy-long", "wait-long"],
    )
    def test_malformed_event_rejected(self, event):
        def prog():
            yield event

        d = make_device()
        d.add_block("p", prog())
        with pytest.raises(DeviceError, match=rf"^p: malformed '{event[0]}' event"):
            d.run()

    def test_event_budget_livelock_guard(self):
        def spinner():
            while True:
                yield ("busy", 1)

        d = make_device(max_events=1000)
        d.add_block("p", spinner())
        with pytest.raises(DeviceError, match="event budget"):
            d.run()


class TestWaiting:
    def test_wait_until_flag_set(self):
        flag = np.zeros(1, dtype=np.int64)
        order = []

        def setter():
            yield ("busy", 500)
            flag[0] = 1
            d.notify("flag")
            order.append("set")

        def waiter():
            yield ("wait", lambda: flag[0] == 1, "flag")
            order.append("woke")

        d = make_device()
        d.add_block("w", waiter())
        d.add_block("s", setter())
        d.run()
        assert order == ["set", "woke"]

    def test_channel_wait_already_true_charges_one_poll(self):
        # A wait models spinning on a hardware flag: the flag being set
        # before the first poll still costs that poll.
        def prog():
            yield ("wait", lambda: True, ("af", 0))

        d = make_device()
        d.add_block("p", prog())
        total = d.run()
        assert total == pytest.approx(d.cost.af_poll_cycles)
        assert d.wakeups == 1

    def test_inline_true_wait_spin_trips_event_budget(self):
        # A program spinning on an always-true wait must still hit the
        # livelock guard: each resume is one more event.
        def spinner():
            while True:
                yield ("wait", lambda: True, "k")

        d = make_device(max_events=1000)
        d.add_block("p", spinner())
        with pytest.raises(DeviceError, match="event budget"):
            d.run()

    def test_deadlock_detected(self):
        def forever():
            yield ("wait", lambda: False, "k")

        d = make_device()
        d.add_block("stuck", forever())
        with pytest.raises(DeviceError, match="deadlock"):
            d.run()

    def test_idle_time_accounted(self):
        flag = np.zeros(1, dtype=np.int64)

        def setter():
            yield ("busy", 1000)
            flag[0] = 1
            d.notify("flag")

        def waiter():
            yield ("wait", lambda: flag[0] == 1, "flag")

        d = make_device()
        w = d.add_block("w", waiter())
        d.add_block("s", setter())
        d.run()
        assert w.idle_cycles == pytest.approx(1000)


class TestRelaxTracking:
    def test_edges_in_flight(self):
        observed = []

        def worker(dev, edges, dur):
            yield ("relax", dur, edges, 0)
            observed.append(dev.active_relax_edges())

        d = make_device()
        d.add_block("w1", worker(d, 100, 50))
        d.add_block("w2", worker(d, 200, 80))
        d.run()
        # when w1 finishes at t=50, w2 (200 edges) still in flight;
        # when w2 finishes, nothing is left
        assert observed == [200.0, 0.0]

    def test_timeline_records_parallelism(self):
        def worker():
            yield ("relax", 1000, 500, 0)

        d = make_device()
        d.add_block("w", worker())
        d.run()
        ts, vs = d.timeline.series()
        assert 500.0 in vs
        assert vs[-1] == 0.0

    def test_negative_relax_rejected(self):
        def prog():
            yield ("relax", 10, -1, 0)

        d = make_device()
        d.add_block("p", prog())
        with pytest.raises(DeviceError, match="negative"):
            d.run()


class TestSharedState:
    def test_atomic_communication_between_blocks(self):
        d = make_device()
        counter = np.zeros(1, dtype=np.int64)

        def incrementer():
            for _ in range(10):
                yield ("busy", 7)
                d.mem.atomic_add(counter, 0, 1)

        d.add_block("a", incrementer())
        d.add_block("b", incrementer())
        d.run()
        assert counter[0] == 20
        assert d.mem.stats.atomics == 20

    def test_block_report(self):
        def prog():
            yield ("busy", 10)

        d = make_device()
        d.add_block("p", prog())
        d.run()
        (rep,) = d.block_report()
        assert rep["name"] == "p"
        assert rep["finished"]
        assert rep["busy_cycles"] == pytest.approx(10)


class TestRescueWaiterDedupe:
    """Each waiting block has exactly one registration, on its own
    channel: the rescue rescan wakes a satisfied waiter once and leaves
    an unsatisfied one where it is."""

    def _park(self, d, name):
        def prog():
            yield ("wait", lambda: True, "chan")

        ctx = d.add_block(name, prog())
        next(ctx.program)  # advance to the wait, as _step would
        ctx._wait_started = 0.0
        return ctx

    def test_distinct_waiters_still_rescued_independently(self):
        d = make_device()
        a = self._park(d, "A")
        b = self._park(d, "B")
        d._channels.setdefault("c1", []).append((0, a, lambda: True))
        d._channels.setdefault("c2", []).append((1, b, lambda: False))
        d._rescue_or_deadlock()
        assert d.wakeups == 1 and d.missed_wakeups == 1
        assert [e[2] for e in d._heap] == [a]
        # the unsatisfied waiter keeps its one registration
        assert list(d._channels) == ["c2"]
        assert [it[1] for it in d._channels["c2"]] == [b]
