"""Run a pinned benchmark matrix and produce a ``BENCH_*.json`` report.

Cells execute one at a time through the :mod:`repro.engine` scheduler
(serial ``jobs=1`` policy — the bit-identical reference path), each
repeated ``repeats`` times after one untimed warm-up run that builds the
graph and warms the per-process memo.  Per cell the report records:

- ``wall_s`` — best (minimum) wall-clock of the timed repeats, measured
  by the engine around the solve; the minimum is the standard estimator
  for "how fast can this code go" under scheduler noise;
- ``time_us`` / ``cycles`` — *simulated* time, which must not move when
  only host-side performance changes;
- ``work_count`` / ``reached`` — algorithmic work, same invariance;
- ``dist_sha256`` — content hash of the little-endian float64 distance
  buffer, so a compare can prove two trees computed identical results;
- ``peak_rss_kb`` — the process's high-water RSS after the cell (ru_maxrss
  is monotonic per process, so this is a running high-water mark, not an
  isolated per-cell peak; cells run smallest-first within a matrix order
  so growth is still attributable).

The report is schema-versioned (:data:`BENCH_SCHEMA_VERSION`) and
documented in ``docs/benchmarks.md`` / ``docs/schema.md``.
"""

from __future__ import annotations

import cProfile
import json
import platform
import pstats
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from repro.baselines.common import RESULT_SCHEMA_VERSION, Options, SSSPResult
from repro.bench.matrix import matrix_entries, matrix_solvers
from repro.calibration import resolve_device
from repro.engine import EngineConfig, plan_cells, run_cells
from repro.errors import ReproError
from repro.validation import dist_sha256

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "RSS_UNIT",
    "BenchCell",
    "BenchReport",
    "run_bench",
    "write_report",
    "load_report",
]

#: Version of the ``BENCH_*.json`` payload.  Bump on any backwards-
#: incompatible change to field names or semantics (documented in
#: ``docs/schema.md``).
BENCH_SCHEMA_VERSION = 1


#: Unit every ``peak_rss_kb`` in a report is normalized to, recorded in
#: the report's ``host`` block so readers never have to guess which
#: platform's ``ru_maxrss`` convention produced the numbers.
RSS_UNIT = "KiB"


def _peak_rss_kb(*, getrusage=None, sys_platform: Optional[str] = None) -> Optional[int]:
    """Process high-water RSS normalized to :data:`RSS_UNIT`, or None.

    ``ru_maxrss`` has no portable unit — Linux reports KiB, macOS bytes —
    so the raw value is normalized per-platform here.  ``getrusage`` (a
    zero-arg callable returning raw ``ru_maxrss``) and ``sys_platform``
    are injectable for the unit tests.
    """
    if sys_platform is None:
        sys_platform = sys.platform
    if getrusage is None:
        try:
            import resource
        except ImportError:  # non-POSIX
            return None

        def getrusage():
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    ru = int(getrusage())
    if sys_platform == "darwin":
        ru //= 1024
    return ru


#: Rows kept in the per-cell ``profile.top`` table (by cumulative time).
PROFILE_TOP_N = 20


def _profile_top(pr: cProfile.Profile, top_n: int = PROFILE_TOP_N) -> List[dict]:
    """The ``top_n`` functions by cumulative time, as JSON-ready rows."""
    st = pstats.Stats(pr)
    rows = []
    for (fname, line, func), (cc, nc, tt, ct, _callers) in st.stats.items():
        rows.append(
            {
                "func": f"{fname}:{line}({func})",
                "ncalls": int(nc),
                "tottime_s": round(float(tt), 6),
                "cumtime_s": round(float(ct), 6),
            }
        )
    rows.sort(key=lambda r: r["cumtime_s"], reverse=True)
    return rows[:top_n]


@dataclass
class BenchCell:
    """One (graph, solver) cell's measurements."""

    graph: str
    category: str
    solver: str
    source: int
    wall_s: float
    wall_s_runs: List[float]
    time_us: float
    cycles: float
    work_count: int
    reached: int
    n_vertices: int
    dist_sha256: str
    peak_rss_kb: Optional[int]
    atomics: int
    fences: int
    #: Optional cProfile capture (``--profile``): pstats file path plus
    #: the top functions by cumulative time.  Additive — absent unless
    #: profiling was requested, and ignored by ``compare_reports``.
    profile: Optional[Dict[str, object]] = None

    def to_json_dict(self) -> Dict[str, object]:
        payload = {
            "graph": self.graph,
            "category": self.category,
            "solver": self.solver,
            "source": int(self.source),
            "wall_s": float(self.wall_s),
            "wall_s_runs": [float(w) for w in self.wall_s_runs],
            "time_us": float(self.time_us),
            "cycles": float(self.cycles),
            "work_count": int(self.work_count),
            "reached": int(self.reached),
            "n_vertices": int(self.n_vertices),
            "dist_sha256": self.dist_sha256,
            "peak_rss_kb": self.peak_rss_kb,
            "atomics": int(self.atomics),
            "fences": int(self.fences),
        }
        if self.profile is not None:
            payload["profile"] = self.profile
        return payload

    @property
    def key(self):
        return (self.graph, self.solver)


@dataclass
class BenchReport:
    """A full matrix run: the content of one ``BENCH_<tag>.json``."""

    tag: str
    matrix: str
    device: str
    repeats: int
    cells: List[BenchCell] = field(default_factory=list)
    host: Dict[str, str] = field(default_factory=dict)
    created: Optional[str] = None
    #: JSON-native per-solve options the matrix ran with.  Additive within
    #: bench_schema 1; readers ignore the retired ``scheduler`` key, both
    #: top-level and inside ``options``.
    options: Dict[str, object] = field(default_factory=dict)

    @property
    def total_wall_s(self) -> float:
        return float(sum(c.wall_s for c in self.cells))

    def cell(self, graph: str, solver: str) -> BenchCell:
        for c in self.cells:
            if c.key == (graph, solver):
                return c
        raise ReproError(f"no bench cell ({graph}, {solver}) in {self.tag}")

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "schema": RESULT_SCHEMA_VERSION,
            "bench_schema": BENCH_SCHEMA_VERSION,
            "tag": self.tag,
            "matrix": self.matrix,
            "device": self.device,
            "repeats": int(self.repeats),
            "created": self.created,
            "host": dict(self.host),
            "options": dict(self.options),
            "totals": {"wall_s": self.total_wall_s},
            "cells": [c.to_json_dict() for c in self.cells],
        }


def run_bench(
    matrix: str = "medium",
    *,
    tag: str = "local",
    repeats: int = 3,
    spec=None,
    cost=None,
    options: Optional[Dict[str, object]] = None,
    warmup: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    profile_dir: Optional[Union[str, Path]] = None,
) -> BenchReport:
    """Execute a pinned matrix; returns the in-memory report.

    ``repeats`` timed runs per cell follow ``warmup`` untimed ones; the
    reported ``wall_s`` is the minimum over the timed runs.  Simulated
    metrics (``time_us``, ``work_count``, distances) are asserted
    identical across repeats — the simulator is deterministic, and a
    repeat that disagrees means the tree itself is broken, which must
    fail the benchmark rather than average out.  ``options`` are
    per-solve options, each applied to the matrix solvers that accept it.

    With ``profile_dir`` set, each cell gets one *extra* untimed run
    under :mod:`cProfile` (profiling skews timing, so it never wraps the
    timed repeats); the raw capture lands in
    ``profile_dir/<graph>__<solver>.pstats`` and the top-20 functions by
    cumulative time are embedded in the cell's ``profile`` record.
    """
    if repeats < 1:
        raise ReproError(f"repeats must be >= 1 (got {repeats})")
    spec, cost = resolve_device(spec, cost)
    notify = progress or (lambda msg: None)

    entries = matrix_entries(matrix)
    solvers = matrix_solvers(matrix)
    config = EngineConfig(jobs=1)
    cells = plan_cells(
        entries, solvers, spec=spec, cost=cost, options=options, config=config,
    )
    if profile_dir is not None:
        profile_dir = Path(profile_dir)
        profile_dir.mkdir(parents=True, exist_ok=True)

    report = BenchReport(
        tag=tag,
        matrix=matrix,
        device=spec.name,
        repeats=repeats,
        host={
            "python": platform.python_version(),
            "machine": platform.machine(),
            "system": platform.system(),
            "rss_unit": RSS_UNIT,
        },
        created=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        options=Options(options).to_json(),
    )

    for cell in cells:
        walls: List[float] = []
        reference: Optional[SSSPResult] = None
        for rep in range(warmup + repeats):
            out = run_cells([cell], config)
            if out.failures:
                raise ReproError(
                    f"bench cell {cell.key} failed: "
                    f"{out.failures[0].describe()}"
                )
            result = out.results[cell.key]
            if rep < warmup:
                continue  # graph build + allocator warm-up, not timed
            walls.append(out.timings[cell.key])
            if reference is None:
                reference = result
            else:
                if (
                    result.time_us != reference.time_us
                    or result.work_count != reference.work_count
                    or not np.array_equal(result.dist, reference.dist)
                ):
                    raise ReproError(
                        f"bench cell {cell.key} is non-deterministic: "
                        f"repeat {rep - warmup} disagrees with repeat 0"
                    )
        profile_record = None
        if profile_dir is not None:
            pr = cProfile.Profile()
            pr.enable()
            run_cells([cell], config)
            pr.disable()
            pstats_path = (
                profile_dir / f"{cell.graph_name}__{cell.solver}.pstats"
            )
            pr.dump_stats(pstats_path)
            profile_record = {
                "pstats": str(pstats_path),
                "top": _profile_top(pr),
            }
        stats = reference.stats or {}
        report.cells.append(
            BenchCell(
                graph=cell.graph_name,
                category=cell.category,
                solver=cell.solver,
                source=cell.source,
                wall_s=min(walls),
                wall_s_runs=walls,
                time_us=float(reference.time_us),
                cycles=float(spec.us_to_cycles(reference.time_us)),
                work_count=int(reference.work_count),
                reached=reference.reached(),
                n_vertices=int(reference.dist.size),
                dist_sha256=dist_sha256(reference.dist),
                peak_rss_kb=_peak_rss_kb(),
                atomics=int(stats.get("atomics", 0)),
                fences=int(stats.get("fences", 0)),
                profile=profile_record,
            )
        )
        notify(
            f"{cell.graph_name}: {cell.solver} "
            f"wall {min(walls) * 1e3:.1f} ms, sim {reference.time_us:.1f} us"
        )
    return report


def write_report(report: BenchReport, out_dir: Union[str, Path] = ".") -> Path:
    """Write ``BENCH_<tag>.json`` into ``out_dir``; returns the path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{report.tag}.json"
    with open(path, "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2)
        fh.write("\n")
    return path


def load_report(path: Union[str, Path]) -> Dict[str, object]:
    """Load a ``BENCH_*.json`` payload, validating its schema version."""
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or "bench_schema" not in payload:
        raise ReproError(f"{path} is not a bench report")
    if payload["bench_schema"] != BENCH_SCHEMA_VERSION:
        raise ReproError(
            f"{path}: bench schema {payload['bench_schema']} is not the "
            f"supported version {BENCH_SCHEMA_VERSION}"
        )
    return payload
