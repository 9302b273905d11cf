"""Exporter tests: Perfetto JSON, counters CSV, summary, artifact set."""

from __future__ import annotations

import json

import numpy as np

from repro.trace import (
    Tracer,
    counters_csv,
    text_summary,
    to_perfetto,
    write_trace_artifacts,
)


def make_tracer():
    t = Tracer()
    t.span("MTB", "mtb_pass", 0.0, 2.0, cat="compute", items=4)
    t.span("WTB0", "relax_batch", 0.5, 1.5, cat="relax", edges=np.int64(12))
    t.instant("MTB", "assign", 2.0, wtb=0)
    t.counter("edges_in_flight", 1.0, 12)
    return t


def test_perfetto_round_trips_through_json_loads():
    doc = to_perfetto(make_tracer())
    parsed = json.loads(json.dumps(doc))
    assert parsed == doc
    evs = parsed["traceEvents"]
    # one process_name + one thread_name per track + the 4 events
    meta = [e for e in evs if e["ph"] == "M"]
    assert meta[0]["args"]["name"] == "repro-sim"
    thread_names = {e["args"]["name"] for e in meta[1:]}
    assert {"MTB", "WTB0", "counters"} <= thread_names


def test_perfetto_phase_mapping():
    evs = to_perfetto(make_tracer())["traceEvents"]
    by_name = {e["name"]: e for e in evs if e["ph"] != "M"}
    assert by_name["mtb_pass"]["ph"] == "X"
    assert by_name["mtb_pass"]["dur"] == 2.0
    assert by_name["assign"]["ph"] == "i"
    assert by_name["edges_in_flight"]["ph"] == "C"
    assert by_name["edges_in_flight"]["args"]["value"] == 12.0
    # numpy scalar args must be coerced to JSON-native types
    assert by_name["relax_batch"]["args"]["edges"] == 12
    assert not isinstance(by_name["relax_batch"]["args"]["edges"], np.integer)
    # spans on the same track share a tid; different tracks differ
    assert by_name["mtb_pass"]["tid"] == by_name["assign"]["tid"]
    assert by_name["mtb_pass"]["tid"] != by_name["relax_batch"]["tid"]


def test_array_and_non_finite_args_stay_strict_json():
    t = Tracer()
    t.instant("MTB", "assign", 0.0, items=np.array([1, 2]), bound=float("inf"))
    doc = json.loads(json.dumps(to_perfetto(t), allow_nan=False))
    (ev,) = [e for e in doc["traceEvents"] if e["name"] == "assign"]
    assert ev["args"] == {"items": [1, 2], "bound": None}


def test_counters_csv_format():
    stats = {
        "work_count": 5, "atomics": np.int64(7), "delta": 32.0,
        "solver": "adds", "delta_trace": [1.0], "missing": None,
    }
    lines = counters_csv(stats).strip().splitlines()
    # numeric entries only, sorted by name
    assert lines == ["name,value", "atomics,7", "delta,32", "work_count,5"]


def test_text_summary_mentions_tracks_and_metrics():
    out = text_summary(make_tracer(), {"atomics": 3}, title="unit test")
    assert "unit test" in out
    assert "MTB" in out and "WTB0" in out
    assert "atomics" in out


def test_write_trace_artifacts(tmp_path):
    paths = write_trace_artifacts(
        tmp_path / "out", make_tracer(), {"work_count": 5}
    )
    names = {p.name for p in paths}
    assert names == {"trace.json", "counters.csv", "summary.txt"}
    for p in paths:
        assert p.exists() and p.stat().st_size > 0
    doc = json.loads((tmp_path / "out" / "trace.json").read_text())
    assert "traceEvents" in doc
