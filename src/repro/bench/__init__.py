"""Benchmark + regression harness (``python -m repro bench``).

Runs a pinned graph×solver matrix (:mod:`repro.bench.matrix`) through
the :mod:`repro.engine` scheduler, records wall-clock / simulated
cycles / work counts / peak RSS per cell (:mod:`repro.bench.runner`),
writes a schema-versioned ``BENCH_<tag>.json``, and gates changes with
``--compare BASELINE.json`` (:mod:`repro.bench.compare`), which exits
non-zero on any simulated-output divergence or missing cell and reports
wall clock without gating it.  Usage lives in ``docs/benchmarks.md``.
"""

from repro.bench.compare import CellDelta, Comparison, compare_reports
from repro.bench.matrix import MATRICES, matrix_entries, matrix_solvers
from repro.bench.runner import (
    BENCH_SCHEMA_VERSION,
    BenchCell,
    BenchReport,
    load_report,
    run_bench,
    write_report,
)

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchCell",
    "BenchReport",
    "CellDelta",
    "Comparison",
    "MATRICES",
    "compare_reports",
    "load_report",
    "matrix_entries",
    "matrix_solvers",
    "run_bench",
    "write_report",
]
