"""Unit tests for the shared stats vocabulary and its integer counts."""

from __future__ import annotations

import numpy as np

from repro.baselines.common import uniform_stats
from repro.trace import UNIFORM_SOLVER_KEYS, counters_csv


def test_counter_keeps_integer_type():
    """NumPy integer counts come out as Python ``int``, so they serialize
    as ``189``, never ``189.0``."""
    stats = uniform_stats(atomics=np.int64(3), fences=2, work_count=np.int32(4))
    assert stats == {"atomics": 3, "fences": 2, "kernel_launches": 0, "work_count": 4}
    assert all(type(v) is int for v in stats.values())


def test_rows_for_csv():
    """A solver's stats become one ``name,value`` row per numeric entry,
    sorted by name; integer counts print without a fraction and
    non-numeric entries are left out."""
    stats = {
        **uniform_stats(atomics=2, work_count=np.int64(5)),
        "delta": 7.5, "solver": "adds", "delta_trace": [1.0],
    }
    rows = counters_csv(stats).strip().splitlines()
    assert rows == [
        "name,value", "atomics,2", "delta,7.5", "fences,0",
        "kernel_launches,0", "work_count,5",
    ]


def test_uniform_solver_keys_contract():
    assert UNIFORM_SOLVER_KEYS == (
        "atomics", "fences", "kernel_launches", "work_count"
    )
    assert tuple(uniform_stats()) == UNIFORM_SOLVER_KEYS
