"""Unit tests for ProtocolChecker: clean solves pass, broken protocol
state trips the right invariant."""

from __future__ import annotations

import numpy as np
import pytest

from repro.calibration import default_gpu
from repro.check import ProtocolChecker
from repro.core.adds import solve_adds
from repro.core.bucket_queue import BucketQueue
from repro.core.config import AddsConfig
from repro.errors import InvariantViolation
from repro.gpu.device import Device
from repro.gpu.memory import GlobalPool, SimMemory


def make_checked_queue(**cfgkw):
    """A direct queue + attached checker; all ops run as host code (no
    current block), so role checks are exempt and the structural
    invariants are what's under test."""
    cfg = AddsConfig(
        n_buckets=4,
        segment_size=4,
        slots_per_block=32,
        pool_blocks=64,
        max_active_buckets=4,
        **cfgkw,
    )
    mem = SimMemory()
    pool = GlobalPool(cfg.pool_blocks, words_per_block=32)
    q = BucketQueue(mem, pool, cfg, initial_delta=10.0)
    for s in range(4):
        q.ensure_capacity(s, 128)
    dev = Device(default_gpu())
    checker = ProtocolChecker()
    checker.attach(device=dev, queue=q)
    return q, checker


class TestCleanSolve:
    def test_checked_solve_passes_and_finalizes(self, small_road, oracle):
        checker = ProtocolChecker()
        r = solve_adds(small_road, 0, checker=checker)
        assert np.allclose(r.dist, oracle(small_road, 0))
        assert checker.checked_ops > 0
        assert checker.violations == []
        # conservation held: every reserved item was published, read
        # and completed exactly once
        assert (
            checker.reserved_total
            == checker.published_total
            == checker.read_total
            == checker.completed_total
            > 0
        )

    def test_checker_is_passive(self, small_road):
        plain = solve_adds(small_road, 0)
        checked = solve_adds(small_road, 0, checker=ProtocolChecker())
        assert np.array_equal(plain.dist, checked.dist)
        assert plain.work_count == checked.work_count
        assert plain.time_us == checked.time_us

    def test_checked_perturbed_solve_passes(self, small_road):
        r = solve_adds(small_road, 0, checker=ProtocolChecker(), perturb_seed=5)
        assert r.stats["perturb_seed"] == 5

    def test_attach_is_single_use(self, small_road):
        checker = ProtocolChecker()
        solve_adds(small_road, 0, checker=checker)
        with pytest.raises(InvariantViolation, match="one solve"):
            solve_adds(small_road, 0, checker=checker)


class TestStructuralInvariants:
    def test_publish_outside_reservation(self):
        q, _ = make_checked_queue()
        q.reserve(0, 4)
        with pytest.raises(InvariantViolation, match="publish-bounds"):
            q.publish(0, 2, np.arange(4, dtype=np.int64), np.arange(4.0))

    def test_double_publish(self):
        q, _ = make_checked_queue()
        start = q.reserve(0, 2)
        v, d = np.arange(2, dtype=np.int64), np.arange(2.0)
        q.publish(0, start, v, d)
        # re-reserving different slots then republishing the old ones
        q.reserve(0, 2)
        with pytest.raises(InvariantViolation, match="publish-bounds"):
            q.publish(0, start, v, d)

    def test_unsafe_rotation_caught(self):
        """unsafe_rotation disables the queue's own CWC guard; the
        checker's rotate-guard still fires on unread/uncompleted work."""
        q, _ = make_checked_queue(unsafe_rotation=True)
        start = q.reserve(0, 3)
        q.publish(0, start, np.arange(3, dtype=np.int64), np.arange(3.0))
        with pytest.raises(InvariantViolation, match="rotate-guard"):
            q.rotate()

    def test_safe_rotation_passes(self):
        q, checker = make_checked_queue()
        start = q.reserve(0, 3)
        q.publish(0, start, np.arange(3, dtype=np.int64), np.arange(3.0))
        assert q.readable_upper(0)[0] == 3
        q.advance_read(0, 3)
        q.read_items(0, 0, 3)
        q.complete(0, 3, q.epoch[0])
        q.rotate()
        assert checker.violations == []

    def test_conservation_failure_at_finalize(self):
        q, checker = make_checked_queue()
        start = q.reserve(0, 3)
        q.publish(0, start, np.arange(3, dtype=np.int64), np.arange(3.0))
        # published but never read/completed
        with pytest.raises(InvariantViolation, match="no-lost-work"):
            checker.finalize()


class TestMemoryInvariants:
    def test_atomic_min_batch_increase_detected(self):
        checker = ProtocolChecker()
        arr = np.array([5.0, 7.0])
        idx = np.array([0, 1])
        before = np.array([5.0, 3.0])  # claims index 1 was 3.0, now 7.0
        with pytest.raises(InvariantViolation, match="dist-monotone"):
            checker.on_atomic_min_batch(arr, idx, np.array([9.0, 9.0]), before, None)

    def test_atomic_min_batch_false_winner_detected(self):
        checker = ProtocolChecker()
        arr = np.array([5.0])
        with pytest.raises(InvariantViolation, match="dist-monotone"):
            checker.on_atomic_min_batch(
                arr,
                np.array([0]),
                np.array([6.0]),  # claims to have won with 6.0, stored is 5.0
                np.array([5.0]),
                np.array([True]),
            )
