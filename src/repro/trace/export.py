"""Exporters: Chrome/Perfetto ``trace.json``, counters CSV, text summary.

The Perfetto UI (https://ui.perfetto.dev) and ``chrome://tracing`` both
load the JSON trace-event format; our simulated clock is already in
microseconds, which is exactly the format's ``ts``/``dur`` unit, so the
mapping is direct:

===========  ==========================================================
event kind   trace-event phase
===========  ==========================================================
span         ``X`` (complete event) on its track's ``tid``
instant      ``i`` (thread-scoped instant)
counter      ``C`` (counter track named after the event)
===========  ==========================================================

Tracks become named threads of one ``repro-sim`` process (one per
simulated thread block — MTB, WTB0..N — plus shared ``queue`` /
``device`` tracks), so the Perfetto timeline shows the scheduler the way
the paper's Figures 11–15 discuss it.
"""

from __future__ import annotations

import json
from pathlib import Path
from numbers import Real
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.trace.tracer import COUNTER, INSTANT, SPAN, Tracer

__all__ = [
    "json_safe",
    "to_perfetto",
    "write_trace_json",
    "counters_csv",
    "write_counters_csv",
    "text_summary",
    "write_trace_artifacts",
]

_PID = 1


def json_safe(v: object) -> object:
    """Recursively coerce numpy scalars/arrays and non-finite floats to
    strict-JSON values (non-finite floats become None)."""
    if isinstance(v, dict):
        return {str(k): json_safe(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [json_safe(x) for x in v]
    if isinstance(v, np.ndarray):
        return [json_safe(x) for x in v.tolist()]
    if hasattr(v, "item"):
        v = v.item()
    if isinstance(v, float) and not np.isfinite(v):
        return None
    return v


def to_perfetto(tracer: Tracer, process_name: str = "repro-sim") -> dict:
    """The trace as a Chrome/Perfetto trace-event JSON object."""
    events: List[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "args": {"name": process_name},
        }
    ]
    tids: Dict[str, int] = {}
    for track in tracer.tracks():
        tid = len(tids) + 1
        tids[track] = tid
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "args": {"name": track},
            }
        )
    for ev in tracer.events:
        tid = tids[ev.track]
        if ev.kind == SPAN:
            events.append(
                {
                    "name": ev.name,
                    "cat": ev.cat,
                    "ph": "X",
                    "pid": _PID,
                    "tid": tid,
                    "ts": ev.ts_us,
                    "dur": ev.dur_us,
                    "args": {k: json_safe(v) for k, v in ev.args.items()},
                }
            )
        elif ev.kind == INSTANT:
            events.append(
                {
                    "name": ev.name,
                    "cat": ev.cat,
                    "ph": "i",
                    "s": "t",
                    "pid": _PID,
                    "tid": tid,
                    "ts": ev.ts_us,
                    "args": {k: json_safe(v) for k, v in ev.args.items()},
                }
            )
        elif ev.kind == COUNTER:
            events.append(
                {
                    "name": ev.name,
                    "ph": "C",
                    "pid": _PID,
                    "ts": ev.ts_us,
                    "args": {"value": json_safe(ev.args.get("value", 0.0))},
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_trace_json(path: Union[str, Path], tracer: Tracer, **kw) -> Path:
    path = Path(path)
    path.write_text(json.dumps(to_perfetto(tracer, **kw)))
    return path


# --------------------------------------------------------------------- #
# counters CSV
# --------------------------------------------------------------------- #

def _numeric_rows(stats: Mapping[str, object]) -> List[Tuple[str, float]]:
    """The numeric entries of a stats mapping as ``(name, value)``
    rows, sorted by name (strings, lists and ``None`` are skipped)."""
    return sorted(
        (name, value) for name, value in stats.items() if isinstance(value, Real)
    )


def counters_csv(stats: Mapping[str, object]) -> str:
    """Flat ``name,value`` CSV of the numeric entries of ``stats``."""
    lines = ["name,value"]
    for name, value in _numeric_rows(stats):
        lines.append(f"{name},{value:g}")
    return "\n".join(lines) + "\n"


def write_counters_csv(path: Union[str, Path], stats: Mapping[str, object]) -> Path:
    path = Path(path)
    path.write_text(counters_csv(stats))
    return path


# --------------------------------------------------------------------- #
# text summary
# --------------------------------------------------------------------- #

def text_summary(
    tracer: Tracer,
    stats: Optional[Mapping[str, object]] = None,
    title: str = "trace summary",
) -> str:
    """A human-readable digest: per-track event/busy totals + counters."""
    lines = [title, "=" * len(title)]
    lines.append(
        f"{len(tracer.events)} events on {len(tracer.tracks())} tracks, "
        f"{tracer.duration_us():.1f} us simulated"
    )
    lines.append("")
    lines.append(f"{'track':<12} {'events':>7} {'spans':>7} {'busy_us':>10} {'busy%':>7}")
    total = max(tracer.duration_us(), 1e-12)
    for track in tracer.tracks():
        evs = tracer.events_for(track)
        spans = [e for e in evs if e.kind == SPAN]
        busy = sum(e.dur_us for e in spans)
        lines.append(
            f"{track:<12} {len(evs):>7} {len(spans):>7} {busy:>10.1f} "
            f"{100.0 * busy / total:>6.1f}%"
        )
    rows = _numeric_rows(stats or {})
    if rows:
        lines.append("")
        lines.append(f"{'metric':<32} {'value':>14}")
        for name, value in rows:
            lines.append(f"{name:<32} {value:>14g}")
    return "\n".join(lines) + "\n"


def write_trace_artifacts(
    out_dir: Union[str, Path],
    tracer: Tracer,
    stats: Optional[Mapping[str, object]] = None,
    *,
    title: str = "trace summary",
) -> List[Path]:
    """Write the standard artifact set into ``out_dir``:
    ``trace.json`` (Perfetto), ``counters.csv``, ``summary.txt``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [write_trace_json(out_dir / "trace.json", tracer)]
    if stats is not None:
        paths.append(write_counters_csv(out_dir / "counters.csv", stats))
    (out_dir / "summary.txt").write_text(text_summary(tracer, stats, title=title))
    paths.append(out_dir / "summary.txt")
    return paths
