"""Unit tests for the MetricsRegistry and its metric types."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    UNIFORM_SOLVER_KEYS,
)


def test_counter_monotonic():
    c = Counter("atomics")
    c.inc()
    c.inc(4)
    assert c.value == 5.0
    with pytest.raises(TraceError):
        c.inc(-1)


def test_counter_keeps_integer_type():
    c = Counter("clips")
    c.inc()
    c.inc(np.int64(3))
    assert c.value == 4 and type(c.value) is int
    c.inc(0.5)
    assert c.value == 4.5 and type(c.value) is float


def test_gauge_last_value_wins():
    g = Gauge("delta")
    g.set(32)
    g.set(64)
    assert g.value == 64


def test_histogram_streaming_stats():
    h = Histogram("batch")
    for v in (4, 8, 12):
        h.observe(v)
    assert h.count == 3
    assert h.mean == pytest.approx(8.0)
    assert h.min == 4.0
    assert h.max == 12.0
    assert Histogram("empty").mean == 0.0


def test_registry_get_or_create_and_type_guard():
    m = MetricsRegistry()
    assert m.counter("a") is m.counter("a")
    with pytest.raises(TraceError):
        m.gauge("a")  # already a counter
    assert "a" in m
    assert "b" not in m


def test_registry_convenience_and_snapshot():
    m = MetricsRegistry()
    m.inc("atomics", 3)
    m.set("delta", 16.0)
    m.observe("batch", 10)
    m.observe("batch", 30)
    m.update({"n_wtbs": 17})
    snap = m.snapshot()
    assert snap["atomics"] == 3.0
    assert snap["delta"] == 16.0
    assert snap["n_wtbs"] == 17
    assert snap["batch_count"] == 2
    assert snap["batch_mean"] == pytest.approx(20.0)
    assert snap["batch_min"] == 10.0
    assert snap["batch_max"] == 30.0
    assert m.value("atomics") == 3.0
    assert m.value("batch") == pytest.approx(20.0)
    assert len(m) == 4
    assert m.names() == ["atomics", "batch", "delta", "n_wtbs"]


def test_rows_for_csv():
    m = MetricsRegistry()
    m.inc("c", 2)
    m.set("g", 7)
    m.observe("h", 5)
    rows = m.rows()
    kinds = {name: kind for name, kind, _ in rows}
    assert kinds["c"] == "counter"
    assert kinds["g"] == "gauge"
    assert kinds["h_count"] == "histogram"
    assert ("h_mean", "histogram", 5.0) in rows


def test_uniform_solver_keys_contract():
    assert UNIFORM_SOLVER_KEYS == (
        "atomics", "fences", "kernel_launches", "work_count"
    )
