"""Tests of the benchmark itself: PYTHONPATH=src python -m pytest perf -q"""

from __future__ import annotations

import json
from concurrent.futures import Future
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import compare
import layers
import oracle
import run
import workloads
from metrics import (NAME_RE, ROOT, UNIT_RE, highest_percentile, load_benchmark,
                     percentiles_ms, unit_of)

BENCH = load_benchmark()
END_TO_END = [m["name"] for m in BENCH["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCH["per_layer"]]


def _reduced(name, trace=False):
    """The workload at a count far below what a run measures, though
    large enough for a median (20 samples, or 20 plans)."""
    if name in workloads.ADDS_GRAPHS:
        return workloads.run(name, 0, 0, trace=trace, min_solves=20, pass_sources=4)
    return workloads.run(name, 0, 0, trace=trace, queries=320)


# -- names, units, percentiles ---------------------------------------------- #


def test_benchmark_names_and_units_follow_the_grammar():
    names = [w["name"] for w in BENCH["workloads"]] + END_TO_END + PER_LAYER
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.match(name), name
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT_RE.match(m["unit"]), m
        assert m["unit"] == unit_of(m["name"]), m
    assert {w["name"] for w in BENCH["workloads"]} == set(workloads.WORKLOADS)


def test_reported_metric_names_follow_the_grammar():
    report = _reduced("serve-updates")
    for name in report.metrics:
        assert NAME_RE.match(name) and UNIT_RE.match(unit_of(name)), name


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_highest_percentile_leaves_ten_samples_beyond(n, expected):
    assert highest_percentile(n) == expected


def test_percentiles_stop_where_the_sample_count_does():
    samples = [i / 1000 for i in range(1, 101)]  # 1..100 ms
    got = percentiles_ms("lat_ms", samples)
    assert set(got) == {"lat_ms.p50", "lat_ms.p90"}
    assert got["lat_ms.p50"] == pytest.approx(np.percentile(np.arange(1, 101), 50))
    assert got["lat_ms.p90"] == pytest.approx(np.percentile(np.arange(1, 101), 90))
    assert percentiles_ms("lat_ms", samples[:19]) == {}


# -- layer attribution -------------------------------------------------------- #


def test_layer_attribution_charges_outside_calls_to_their_repro_callers():
    pkg = Path("/checkout/src/repro")
    device = (str(pkg / "gpu/device.py"), 10, "step")
    wtb = (str(pkg / "core/wtb.py"), 20, "run")
    helper = (str(pkg / "gpu/__init__.py"), 1, "helper")
    builtin = ("~", 0, "<built-in method builtins.len>")
    np_sum = ("/site-packages/numpy/fromnumeric.py", 5, "sum")
    np_reduce = ("~", 0, "<method 'reduce' of 'numpy.ufunc' objects>")
    loop = ("/checkout/perf/workloads.py", 1, "adds_pass")
    # (cc, nc, tt, ct, callers); each caller entry is (nc, cc, tt, ct)
    stats = {
        loop: (1, 1, 0.5, 7.0, {}),
        device: (3, 3, 2.0, 4.0, {loop: (3, 3, 2.0, 4.0)}),
        wtb: (2, 2, 1.0, 2.8, {loop: (2, 2, 1.0, 2.8)}),
        helper: (1, 1, 0.2, 0.2, {loop: (1, 1, 0.2, 0.2)}),
        builtin: (10, 10, 0.9, 0.9, {device: (6, 6, 0.6, 0.6), wtb: (4, 4, 0.3, 0.3)}),
        np_sum: (4, 4, 0.4, 1.6, {device: (1, 1, 0.1, 0.4), wtb: (3, 3, 0.3, 1.2)}),
        np_reduce: (4, 4, 1.2, 1.2, {np_sum: (4, 4, 1.2, 1.2)}),
    }
    got = layers.attribute(stats, pkg)
    # own 2.0 + len 0.6 + sum 0.1 + reduce 1.2 * (0.4 / 1.6)
    assert got["gpu.device"]["self_s"] == pytest.approx(3.0)
    # own 1.0 + len 0.3 + sum 0.3 + reduce 1.2 * (1.2 / 1.6)
    assert got["core.wtb"]["self_s"] == pytest.approx(2.5)
    assert got["gpu"]["self_s"] == pytest.approx(0.2)
    assert got["external"]["self_s"] == pytest.approx(0.5)
    assert got["gpu.device"]["calls"] == 3
    total = sum(v["self_s"] for v in got.values())
    assert total == pytest.approx(sum(s[2] for s in stats.values()))

    flat = layers.layer_metrics(got)
    assert flat["gpu.device.self_s"] == pytest.approx(3.0)
    assert flat["other.self_s"] == pytest.approx(0.2)  # "gpu" is not a named layer
    assert flat["external.self_s"] == pytest.approx(0.5)
    assert flat["serve.cache.calls"] == 0


def test_module_layer_names():
    pkg = Path("/c/src/repro")
    assert layers.module_layer("/c/src/repro/core/mtb.py", pkg) == "core.mtb"
    assert layers.module_layer("/c/src/repro/serve/__init__.py", pkg) == "serve"
    assert layers.module_layer("/c/src/repro/__init__.py", pkg) == "repro"
    assert layers.module_layer("~", pkg) is None


def test_traced_run_reports_every_layer_and_accounts_for_its_wall():
    report = _reduced("serve-updates", trace=True)
    assert report.failed == 0
    assert set(PER_LAYER) <= set(report.metrics)
    self_s = sum(v for k, v in report.metrics.items() if k.endswith(".self_s"))
    assert self_s == pytest.approx(report.metrics["traced_s"], rel=0.05)
    assert report.metrics["baselines.dijkstra.calls"] > 0
    assert report.metrics["dynamic.updates.calls"] > 0


# -- oracle ------------------------------------------------------------------- #


def test_oracle_catches_one_corrupted_answer(monkeypatch):
    solve = workloads.repro.sssp
    calls = []

    def corrupt_third(graph, source=0, **kw):
        result = solve(graph, source, **kw)
        calls.append(source)
        if len(calls) == 3:
            result.dist[np.flatnonzero(np.isfinite(result.dist))[-1]] += 1.0
        return result

    monkeypatch.setattr(workloads.repro, "sssp", corrupt_third)
    out = workloads.run("adds-powerlaw", 0, 0, min_solves=4, pass_sources=4)
    assert out.failed == 1
    assert out.metrics["failed_frac"] == pytest.approx(1 / 8)


def test_a_failed_answer_makes_the_run_exit_1(monkeypatch, capsys):
    canned = workloads.Outcome(attempted=8, failed=1,
                               metrics={name: 1.0 for name in END_TO_END})
    monkeypatch.setattr(workloads, "run", lambda *a, **kw: canned)
    assert run.main(["--workload", "adds-road", "--seconds", "0"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == 1
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == set(END_TO_END)


def test_failed_answers_checks_each_answer_against_its_generation():
    inputs = workloads.serve_inputs(0, 0, 64, workloads.UPDATE_BATCHES["serve-updates"])
    matrices = workloads.generations(inputs)

    def answer(gid, gen, source, targets=None, dist=None, error=None):
        fut = Future()
        if error is not None:
            fut.set_exception(error)
        else:
            dist = oracle.reference(matrices[(gid, gen)], source) if dist is None else dist
            target_dist = None if targets is None else dist[list(targets)]
            fut.set_result(SimpleNamespace(dist=dist, target_dist=target_dist))
        return (gid, gen, source, targets, fut)

    wrong_gen = oracle.reference(matrices[("gnm", 0)], 5)
    assert not np.array_equal(wrong_gen, oracle.reference(matrices[("gnm", 5)], 5))
    answers = [answer("gnm", 5, 5), answer("road", 0, 3, targets=(7, 9)),
               answer("gnm", 0, 5), answer("rmat", 2, 1)]
    assert workloads.failed_answers(matrices, answers) == 0
    answers += [answer("gnm", 5, 5, dist=wrong_gen),
                answer("mesh", 1, 4, error=RuntimeError("lost"))]
    assert workloads.failed_answers(matrices, answers) == 2


def test_answer_ok_checks_the_target_slice():
    ref = np.array([0.0, 3.0, np.inf, 7.0])
    assert oracle.answer_ok(ref, ref.copy(), (3, 1), np.array([7.0, 3.0]))
    assert not oracle.answer_ok(ref, ref.copy(), (3, 1), np.array([7.0, 4.0]))
    assert not oracle.answer_ok(ref, ref.copy(), (3,), None)
    assert not oracle.answer_ok(ref, ref + 1, None, None)


def _workload_graphs():
    graphs = {name: build() for name, build in workloads.ADDS_GRAPHS.items()}
    graphs.update({f"serve/{gid}": build() for gid, build in workloads.SERVE_GRAPHS.items()})
    inputs = workloads.serve_inputs(0, 0, 64, workloads.UPDATE_BATCHES["serve-updates"])
    for gid, batches in inputs.batches.items():
        g = workloads.SERVE_GRAPHS[gid]()
        for batch in batches:
            g = workloads.apply_updates(g, batch).graph
        graphs[f"serve-updates/{gid}"] = g
    return graphs


def test_scipy_oracle_equals_repro_dijkstra_on_every_workload_graph():
    for name, graph in _workload_graphs().items():
        matrix = oracle.to_matrix(graph)
        for source in [0] + next(workloads.source_passes(graph, 0, 5)):
            direct = workloads.repro.sssp(graph, source, algorithm="dijkstra")
            assert oracle.same_bits(oracle.reference(matrix, source), direct.dist), (name, source)


# -- pinned inputs -------------------------------------------------------------- #


def test_fingerprints_match_the_generators():
    pinned = json.loads(workloads.FINGERPRINTS.read_text())["workloads"]
    for name in workloads.WORKLOADS:
        assert workloads.fingerprint(name) == pinned[name], name


def test_a_changed_fingerprint_fails(monkeypatch):
    monkeypatch.setitem(workloads.SERVE_GRAPHS, "gnm",
                        lambda: workloads.repro.random_gnm(2000, 8000, max_weight=100, seed=205))
    with pytest.raises(workloads.BenchError, match="fingerprints"):
        workloads.run("serve-hot", 0, 0)
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "serve-hot", "--seconds", "0"])
    assert exc.value.code != 0


def test_anchors_match_the_bench_baseline():
    baseline = ROOT / "BENCH_pr4.json"
    if not baseline.exists():
        pytest.skip("BENCH_pr4.json is not in this checkout")
    cells = {(c["graph"], c["solver"], c["source"]): c["dist_sha256"]
             for c in json.loads(baseline.read_text())["cells"]}
    for anchor in json.loads(workloads.FINGERPRINTS.read_text())["anchors"].values():
        assert cells[(anchor["cell"], "adds", 0)] == anchor["dist_sha256"]


# -- workloads at reduced counts ----------------------------------------------- #


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_each_workload_completes_at_a_reduced_count(name):
    out = _reduced(name)
    assert out.attempted > 0 and out.failed == 0
    # latency_ms.p90 needs 100 samples, more than this count gives
    for metric in ("latency_ms.p50", "throughput", "setup_s", "host_speed"):
        assert out.metrics[metric] > 0, metric
    # positive in a fresh process; here earlier tests may have set the peak
    assert out.metrics["peak_rss_mb"] >= 0
    assert out.metrics["failed_frac"] == 0
    if name == "serve-updates":
        assert out.metrics["update_ms.p50"] > 0


# -- comparison ------------------------------------------------------------------ #


@pytest.mark.parametrize("parent, change, better, verdict", [
    ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], [90] * 9 + [101], "lower", "gain"),
    ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], [100.5] * 10, "lower", "ok"),
    ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], [115] * 10, "lower", "regression"),
    ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], [115] * 10, "higher", "gain"),
    ([60, 140, 80, 120, 100, 70, 130, 90, 110, 100], [104] * 10, "lower", "unresolved"),
    ([60, 140, 80, 120, 100, 70, 130, 90, 110, 100], [200] * 10, "lower", "regression"),
    ([60, 140, 80, 120, 100, 70, 130, 90, 110, 100], [50] * 10, "lower", "gain"),
    ([100] * 10, [60, 140, 80, 120, 100, 70, 130, 90, 110, 100], "lower", "unresolved"),
])
def test_judge(parent, change, better, verdict):
    assert compare.judge(parent, change, better, 0.1) == verdict


def _runs(latency, speedup, seconds=22):
    """Ten ``--out`` reports of adds-road; pair i ran seed i, so exact
    metrics differ between pairs but not within one."""
    metrics = {m: 1.0 for m in END_TO_END}
    return [{"adds-road": {"failed": 0, "seed": i, "seconds": seconds, "metrics": dict(
        metrics, **{"latency_ms.p50": latency + i % 3, "sim_speedup": speedup + i})}}
        for i in range(10)]


ROAD_ONLY = dict(BENCH, workloads=[{"name": "adds-road"}])


def _problems(parent, change):
    return compare.compare(parent, change, ROAD_ONLY)[1]


def test_compare_rows_per_workload_and_exact_metrics():
    rows, problems = compare.compare(_runs(100, 4.0), _runs(100, 4.0), ROAD_ONLY)
    assert {(r["metric"], r["verdict"]) for r in rows} >= {
        ("latency_ms.p50", "ok"), ("sim_speedup", "same")}
    assert problems == []
    rows, problems = compare.compare(_runs(100, 4.0), _runs(130, 4.5), ROAD_ONLY)
    assert {(r["metric"], r["verdict"]) for r in rows} >= {
        ("latency_ms.p50", "regression"), ("sim_speedup", "changed")}
    assert len(problems) == 2


def test_compare_fails_what_one_side_dropped_or_measured_differently():
    assert _problems(_runs(100, 4.0), _runs(100, 4.0)) == []
    dropped = _runs(100, 4.0)
    del dropped[3]["adds-road"]["metrics"]["setup_s"]
    assert _problems(_runs(100, 4.0), dropped) == ["adds-road setup_s: missing from some runs"]
    dropped[3]["adds-road"]["metrics"]["setup_s"] = 1.0
    del dropped[3]["adds-road"]["metrics"]["sim_speedup"]
    assert _problems(_runs(100, 4.0), dropped) == ["adds-road sim_speedup: missing from some runs"]
    dropped[3] = {}
    assert _problems(_runs(100, 4.0), dropped) == ["adds-road: missing from 1 runs"]
    assert any("--seconds" in p for p in _problems(_runs(100, 4.0), _runs(100, 4.0, seconds=5)))
    shifted = _runs(100, 4.0)
    shifted[0]["adds-road"]["seed"] = 7
    assert any("pair 1" in p for p in _problems(_runs(100, 4.0), shifted))
