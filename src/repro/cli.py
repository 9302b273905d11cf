"""Command-line interface: ``python -m repro <command>``.

Subcommands mirror how the paper's artifact is driven:

- ``generate`` — create a synthetic graph and write it as a binary GR file
- ``info``     — Table-2-style statistics for a graph file
- ``solve``    — run one solver on one graph (the ``ads_int``-style binary)
- ``suite``    — run solvers over the built-in corpus (``run_all.sh``)
- ``bench``    — run a pinned benchmark matrix; emit/compare ``BENCH_*.json``
- ``serve-bench`` — replay a synthetic query trace through the
  :mod:`repro.serve` session; report latency percentiles, throughput,
  batch sizes and cache hit rate (see ``docs/serving.md``)
- ``check``    — fuzz solvers across perturbed schedules under the SRMW
  protocol checker (see ``docs/checking.md``)
- ``trace``    — run one solver with tracing on; write Perfetto/CSV artifacts
- ``verify``   — compare two ``*_final_dist`` files (``verify.py``)
- ``convert``  — convert between text DIMACS and binary GR

``solve`` and ``suite`` take ``--json`` for machine-readable output, so
benchmark drivers and external tooling don't have to parse text tables.

All commands are plain functions over argparse namespaces; ``main(argv)``
returns a process exit code, so everything is unit-testable.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro import __version__
from repro.analysis import bin_ratios, format_distribution_table, format_table
from repro.baselines.common import (
    RESULT_SCHEMA_VERSION,
    SOLVERS,
    Options,
    SolveRequest,
    get_solver,
    solver_names,
)
from repro.bench import (
    MATRICES,
    compare_reports,
    load_report,
    run_bench,
    write_report,
)
from repro.calibration import sim_cost, sim_gpu
from repro.check import run_check
from repro.check.testing import FAULTS
from repro.errors import ReproError
from repro.graphs import (
    build_suite,
    clique_chain,
    fem_mesh,
    grid_road,
    random_geometric,
    random_gnm,
    read_gr,
    rmat,
    write_gr,
)
from repro.graphs.gr_format import read_dimacs, write_dimacs
from repro.graphs.metrics import compute_stats
from repro.graphs.suite import SuiteEntry
from repro.gpu.specs import RTX_2080TI, RTX_3090
from repro.harness import (
    run_suite,
    run_traced_solve,
    write_result_files,
)
from repro.serve import run_serve_bench
from repro.validation import verify_dist_files, write_dist_file

__all__ = ["main", "build_parser"]

_DEVICES = {"2080ti": RTX_2080TI, "3090": RTX_3090}


def _device_args(ns):
    base = _DEVICES[ns.device]
    if ns.full_size:
        return base, None  # stock CostModel via resolve_device
    spec = sim_gpu(base)
    return spec, sim_cost(spec)


#: Flags that are per-solve options; a subcommand without the flag, or a
#: flag left unset (None), leaves the solver's default in place.
_OPTION_FLAGS = ("delta", "sources")


def _options(ns) -> Options:
    """The per-solve options named on the command line."""
    return Options({k: getattr(ns, k, None) for k in _OPTION_FLAGS})


def _load_graph(path: str, float_weights: bool):
    p = Path(path)
    if p.suffix in (".dimacs", ".txt"):
        return read_dimacs(p, dtype="float32" if float_weights else "int32")
    return read_gr(p, float_weights=float_weights)


# --------------------------------------------------------------------- #
# commands
# --------------------------------------------------------------------- #

def cmd_generate(ns) -> int:
    kind = ns.kind
    seed = ns.seed
    if kind == "road":
        g = grid_road(ns.width, ns.height, max_weight=ns.max_weight, seed=seed)
    elif kind == "rmat":
        g = rmat(ns.scale, edge_factor=ns.edge_factor,
                 max_weight=ns.max_weight, seed=seed)
    elif kind == "gnm":
        g = random_gnm(ns.n, ns.m, max_weight=ns.max_weight, seed=seed)
    elif kind == "mesh":
        g = fem_mesh(ns.n, band=ns.band, stride=ns.stride,
                     max_weight=ns.max_weight, seed=seed)
    elif kind == "geo":
        g = random_geometric(ns.n, k=ns.k, seed=seed)
    elif kind == "cliques":
        g = clique_chain(ns.cliques, ns.clique_size,
                         max_weight=ns.max_weight, seed=seed)
    else:  # pragma: no cover - argparse restricts choices
        raise ReproError(f"unknown kind {kind}")
    write_gr(g, ns.output)
    print(f"wrote {g.name}: |V|={g.num_vertices} |E|={g.num_edges} -> {ns.output}")
    return 0


def cmd_info(ns) -> int:
    g = _load_graph(ns.graph, ns.float)
    st = compute_stats(g, ns.source)
    rows = [
        ("vertices", st.num_vertices),
        ("edges", st.num_edges),
        ("avg degree", f"{st.avg_degree:.2f} (bin {st.degree_bin_label()})"),
        ("max degree", st.max_degree),
        ("avg weight", f"{st.avg_weight:.2f}"),
        ("max weight", f"{st.max_weight:.0f}"),
        ("pseudo-diameter", f"{st.diameter} (bin {st.diameter_bin_label()})"),
        ("reachable from source", f"{100 * st.reachable:.1f}%"),
        ("meets paper criterion", "yes" if st.reachable >= 0.75 else "NO"),
    ]
    print(format_table(["property", "value"], rows, title=g.name))
    return 0


def cmd_solve(ns) -> int:
    g = _load_graph(ns.graph, ns.float)
    spec, cost = _device_args(ns)
    result = get_solver(ns.algorithm).solve(
        SolveRequest(
            graph=g, source=ns.source, spec=spec, cost=cost,
            options=_options(ns),
        )
    )
    if ns.json:
        payload = result.to_json_dict(include_dist=ns.json_dist)
        if ns.path_to is not None:
            path = result.path_to(ns.path_to)
            payload["path_to"] = (
                None if path is None else [int(v) for v in path]
            )
        if ns.dist_out:
            write_dist_file(result, ns.dist_out)
            payload["dist_file"] = str(ns.dist_out)
        print(json.dumps(payload, indent=2))
        return 0
    print(result.result_line())
    print(f"reached {result.reached()}/{g.num_vertices} vertices; "
          f"time {result.time_us:.1f} us; work {result.work_count}")
    if ns.path_to is not None:
        path = result.path_to(ns.path_to)
        if path is None:
            print(f"vertex {ns.path_to} unreachable")
        else:
            print(f"path to {ns.path_to} (dist {result.dist[ns.path_to]:g}): "
                  + " -> ".join(map(str, path)))
    if ns.dist_out:
        write_dist_file(result, ns.dist_out)
        print(f"distances written to {ns.dist_out}")
    return 0


def cmd_suite(ns) -> int:
    solvers = tuple(ns.solvers.split(","))
    suite = build_suite(
        scale=ns.scale,
        categories=ns.categories.split(",") if ns.categories else None,
        max_graphs=ns.max_graphs,
    )
    spec, cost = _device_args(ns)
    progress = (lambda msg: print(f"  {msg}", file=sys.stderr)) if ns.verbose else None
    options = _options(ns)
    run = run_suite(
        solvers=solvers, suite=suite, spec=spec, cost=cost, progress=progress,
        options=options,
        jobs=None if ns.jobs == 0 else ns.jobs,
        timeout_s=ns.timeout,
        max_attempts=ns.retries,
        cache_dir=ns.cache_dir,
        store_path=ns.resume,
        resume=ns.resume is not None,
    )
    if ns.json:
        payload = {
            "schema": RESULT_SCHEMA_VERSION,
            "solvers": list(solvers),
            "options": options.to_json(),
            "records": [
                {
                    "graph": rec.graph,
                    "category": rec.category,
                    "results": {
                        name: {
                            "time_us": float(r.time_us),
                            "work_count": int(r.work_count),
                            "reached": r.reached(),
                        }
                        for name, r in rec.results.items()
                    },
                }
                for rec in run.records
            ],
            "verification_failures": list(run.verification_failures),
            "failures": [f.to_json_dict() for f in run.failures],
            "resumed": run.resumed,
        }
        if len(solvers) > 1:
            base = solvers[1]
            speedups = run.speedups(solvers[0], base)
            d = bin_ratios(speedups, label=base.upper())
            payload["speedup"] = {
                "solver": solvers[0],
                "baseline": base,
                "mean": d.arithmetic_mean,
                "geomean": d.geomean,
                "values": [float(s) for s in speedups],
            }
        if ns.out:
            payload["result_files"] = [
                str(p) for p in write_result_files(run, ns.out)
            ]
        print(json.dumps(payload, indent=2))
        return 1 if run.verification_failures else 0
    for failure in run.verification_failures:
        print(f"VERIFY: {failure}", file=sys.stderr)
    for failed in run.failures:
        print(f"FAILED: {failed.describe()}", file=sys.stderr)
    if run.resumed:
        print(f"resumed {run.resumed} cells from {ns.resume}", file=sys.stderr)
    if len(solvers) > 1:
        base = solvers[1]
        d = bin_ratios(run.speedups(solvers[0], base), label=base.upper())
        print(format_distribution_table(
            [d],
            title=f"speedup of {solvers[0]} over {base} "
                  f"({len(run.records)} graphs, mean {d.arithmetic_mean:.2f}x, "
                  f"geomean {d.geomean:.2f}x)",
        ))
    if ns.out:
        paths = write_result_files(run, ns.out)
        print(f"result files: {', '.join(str(p) for p in paths)}")
    return 1 if run.verification_failures else 0


def cmd_bench(ns) -> int:
    spec, cost = _device_args(ns)
    progress = None
    if ns.verbose:
        progress = lambda msg: print(f"  {msg}", file=sys.stderr)  # noqa: E731
    report = run_bench(
        ns.matrix,
        tag=ns.tag,
        repeats=ns.repeats,
        spec=spec,
        cost=cost,
        options=_options(ns),
        progress=progress,
        profile_dir=ns.profile,
    )
    path = write_report(report, ns.out)
    comparison = None
    if ns.compare:
        comparison = compare_reports(load_report(ns.compare), report)
    if ns.json:
        payload = report.to_json_dict()
        payload["report_file"] = str(path)
        if comparison is not None:
            payload["compare"] = {
                "baseline": str(ns.compare),
                "mismatches": list(comparison.mismatches),
                "missing": [f"{g}/{s}" for g, s in comparison.missing],
                "field_gaps": list(comparison.field_gaps),
                "ok": comparison.ok,
            }
        print(json.dumps(payload, indent=2))
    else:
        for cell in report.cells:
            print(
                f"{cell.graph:28s} {cell.solver:6s} "
                f"wall {cell.wall_s * 1e3:8.1f} ms   "
                f"sim {cell.time_us:10.1f} us   work {cell.work_count}"
            )
        print(
            f"matrix {report.matrix}: {len(report.cells)} cells, "
            f"total wall {report.total_wall_s * 1e3:.1f} ms -> {path}"
        )
        if ns.profile:
            print(f"cProfile captures: {ns.profile}/*.pstats "
                  f"(top-20 tables embedded in the report)")
        if comparison is not None:
            for line in comparison.summary_lines():
                print(line)
    if comparison is not None and not comparison.ok:
        return 1
    return 0


def cmd_serve_bench(ns) -> int:
    spec, cost = _device_args(ns)
    progress = None
    if ns.verbose:
        progress = lambda msg: print(f"  {msg}", file=sys.stderr)  # noqa: E731
    payload = run_serve_bench(
        queries=ns.queries,
        scale=ns.scale,
        max_graphs=ns.max_graphs,
        categories=ns.categories.split(",") if ns.categories else None,
        solver=ns.solver,
        options=_options(ns),
        max_batch=ns.max_batch,
        cache_entries=ns.cache_entries,
        burst=ns.burst,
        seed=ns.seed,
        jobs=ns.jobs,
        spec=spec,
        cost=cost,
        tag=ns.tag,
        verify=not ns.no_verify,
        updates=ns.updates,
        update_size=ns.update_size,
        progress=progress,
    )
    if ns.out:
        out = Path(ns.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2) + "\n")
    if ns.json:
        print(json.dumps(payload, indent=2))
    else:
        res = payload["results"]
        lat = res["latency_ms"]
        print(
            f"served {res['served']} queries in {res['wall_s']:.2f}s "
            f"({res['throughput_qps']:.0f} q/s, solver {ns.solver})"
        )
        print(
            f"latency ms: p50 {lat['p50']:.2f}  p90 {lat['p90']:.2f}  "
            f"p99 {lat['p99']:.2f}  max {lat['max']:.2f}"
        )
        print(
            f"cache: {res['cache']['lookup_hits']:.0f} lookup hits / "
            f"{res['cache']['lookup_misses']:.0f} lookup misses "
            f"(hit rate {res['cache']['hit_rate']:.1%}), "
            f"mean batch {res['batch_mean']:.1f}"
        )
        hist = ", ".join(f"{k}x{v}" for k, v in res["batch_size_hist"].items())
        print(f"batch sizes: {hist}")
        upd = payload.get("updates")
        if upd:
            print(
                f"updates: {upd['batches']} batches × {upd['update_size']} "
                f"edges; incremental {upd['incremental_wall_s']:.2f}s vs "
                f"full {upd['full_wall_s']:.2f}s "
                f"(speedup {upd['speedup']:.2f}x, "
                f"{upd['incremental_solves']:.0f} warm solves, "
                f"{upd['pass_mismatches']} pass mismatches)"
            )
        if payload["verify"]["enabled"]:
            n_bad = len(payload["verify"]["mismatches"])
            print(
                f"verify: {payload['verify']['checked']} distinct solves "
                f"re-checked directly, {n_bad} mismatches"
            )
    if payload["verify"]["enabled"] and payload["verify"]["mismatches"]:
        return 1
    if payload.get("updates") and payload["updates"]["pass_mismatches"]:
        return 1
    return 0


def cmd_check(ns) -> int:
    spec, cost = _device_args(ns)
    entries = None
    solvers = tuple(ns.solvers.split(",")) if ns.solvers else None
    if ns.graph:
        g = _load_graph(ns.graph, ns.float)
        entries = [
            SuiteEntry(
                name=g.name or Path(ns.graph).stem,
                category="file",
                factory=lambda: g,
                source=ns.source,
            )
        ]
    if ns.updates:
        from repro.check import run_update_check

        progress = (
            (lambda msg: print(f"  {msg}", file=sys.stderr))
            if ns.verbose else None
        )
        report = run_update_check(
            ns.matrix,
            batches=ns.updates,
            batch_size=ns.update_size,
            schedules=ns.schedules,
            seed=ns.seed,
            entries=entries,
            spec=spec,
            cost=cost,
            progress=progress,
        )
        if ns.json:
            print(json.dumps(report.to_json_dict(), indent=2))
        else:
            for line in report.summary_lines():
                print(line)
        return 0 if report.ok else 1
    checker_factory = None
    if ns.inject:
        from repro.check.testing import FaultyChecker

        checker_factory = lambda: FaultyChecker(ns.inject)  # noqa: E731
    progress = (
        (lambda msg: print(f"  {msg}", file=sys.stderr)) if ns.verbose else None
    )
    report = run_check(
        ns.matrix,
        schedules=ns.schedules,
        seed=ns.seed,
        entries=entries,
        solvers=solvers,
        spec=spec,
        cost=cost,
        replay=not ns.no_replay,
        checker_factory=checker_factory,
        options=_options(ns),
        progress=progress,
    )
    if ns.json:
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        for line in report.summary_lines():
            print(line)
    return 0 if report.ok else 1


def cmd_trace(ns) -> int:
    g = _load_graph(ns.graph, ns.float)
    spec, cost = _device_args(ns)
    result, tracer, paths = run_traced_solve(
        g, ns.algorithm, source=ns.source, spec=spec, cost=cost,
        out_dir=ns.out, options=_options(ns),
    )
    if ns.json:
        payload = result.to_json_dict()
        payload["trace"] = {
            "events": len(tracer.events),
            "tracks": len(tracer.tracks()),
        }
        payload["artifacts"] = [str(p) for p in paths]
        print(json.dumps(payload, indent=2))
        return 0
    print(result.result_line())
    print(f"reached {result.reached()}/{g.num_vertices} vertices; "
          f"time {result.time_us:.1f} us; work {result.work_count}")
    print(f"{len(tracer.events)} trace events on {len(tracer.tracks())} tracks")
    for p in paths:
        print(f"wrote {p}")
    print("open trace.json at https://ui.perfetto.dev (or chrome://tracing)")
    return 0


def cmd_verify(ns) -> int:
    mismatches = verify_dist_files(ns.file_a, ns.file_b, atol=ns.atol)
    for m in mismatches[: ns.max_report]:
        print(m)
    if mismatches:
        print(f"{len(mismatches)} mismatches")
        return 1
    print("OK: distances match")
    return 0


def cmd_convert(ns) -> int:
    src, dst = Path(ns.input), Path(ns.output)
    if src.suffix in (".dimacs", ".txt"):
        g = read_dimacs(src, dtype="float32" if ns.float else "int32")
    else:
        g = read_gr(src, float_weights=ns.float)
    if dst.suffix in (".dimacs", ".txt"):
        write_dimacs(g, dst)
    else:
        write_gr(g, dst)
    print(f"{src} -> {dst} ({g.num_vertices} vertices, {g.num_edges} edges)")
    return 0


# --------------------------------------------------------------------- #
# parser
# --------------------------------------------------------------------- #

def _add_device_flags(p):
    p.add_argument("--device", choices=sorted(_DEVICES), default="2080ti",
                   help="GPU model for GPU solvers")
    p.add_argument("--full-size", action="store_true",
                   help="use the unscaled device (see repro.calibration)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="repro",
        description="ADDS SSSP (PPoPP'21) reproduction toolkit",
    )
    ap.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic graph as .gr")
    g.add_argument("kind", choices=["road", "rmat", "gnm", "mesh", "geo", "cliques"])
    g.add_argument("output")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--max-weight", type=int, default=100)
    g.add_argument("--width", type=int, default=64)
    g.add_argument("--height", type=int, default=64)
    g.add_argument("--scale", type=int, default=12)
    g.add_argument("--edge-factor", type=int, default=8)
    g.add_argument("--n", type=int, default=4000)
    g.add_argument("--m", type=int, default=16000)
    g.add_argument("--band", type=int, default=24)
    g.add_argument("--stride", type=int, default=3)
    g.add_argument("--k", type=int, default=6)
    g.add_argument("--cliques", type=int, default=12)
    g.add_argument("--clique-size", type=int, default=40)
    g.set_defaults(fn=cmd_generate)

    i = sub.add_parser("info", help="graph statistics (Table 2 style)")
    i.add_argument("graph")
    i.add_argument("--source", type=int, default=0)
    i.add_argument("--float", action="store_true", help="float edge weights")
    i.set_defaults(fn=cmd_info)

    s = sub.add_parser("solve", help="run one solver on one graph")
    s.add_argument("graph")
    s.add_argument("--algorithm", "-a", choices=sorted(SOLVERS), default="adds")
    s.add_argument("--source", type=int, default=0)
    s.add_argument("--sources", type=lambda v: [int(x) for x in v.split(",")],
                   help="comma-separated multi-source seeds")
    s.add_argument("--float", action="store_true")
    s.add_argument("--delta", type=float)
    s.add_argument("--path-to", type=int, help="print the path to this vertex")
    s.add_argument("--dist-out", help="write a *_final_dist file")
    s.add_argument("--json", action="store_true",
                   help="emit a machine-readable JSON result")
    s.add_argument("--json-dist", action="store_true",
                   help="include the full distance array in --json output")
    _add_device_flags(s)
    s.set_defaults(fn=cmd_solve)

    r = sub.add_parser("suite", help="run solvers over the corpus (run_all)")
    r.add_argument("--solvers", default="adds,nf")
    r.add_argument("--scale", type=float, default=1.0)
    r.add_argument("--categories")
    r.add_argument("--max-graphs", type=int)
    r.add_argument("--out", help="directory for artifact-style result files")
    r.add_argument("--verbose", "-v", action="store_true")
    r.add_argument("--json", action="store_true",
                   help="emit a machine-readable JSON summary")
    r.add_argument("--jobs", "-j", type=int, default=1,
                   help="worker processes (0 = auto-detect; default 1, serial)")
    r.add_argument("--timeout", type=float,
                   help="per-cell time budget in seconds")
    r.add_argument("--retries", type=int, default=2, metavar="N",
                   help="attempts per cell before recording a failure")
    r.add_argument("--cache-dir",
                   help="directory for the on-disk graph cache")
    r.add_argument("--resume", metavar="STORE",
                   help="JSONL result store; completed cells found in it "
                        "are restored instead of re-run")
    _add_device_flags(r)
    r.set_defaults(fn=cmd_suite)

    b = sub.add_parser(
        "bench",
        help="run a pinned benchmark matrix; emit/compare BENCH_<tag>.json",
    )
    b.add_argument("--tag", default="local",
                   help="report name: BENCH_<tag>.json")
    b.add_argument("--matrix", choices=sorted(MATRICES), default="medium")
    b.add_argument("--repeats", type=int, default=3,
                   help="timed runs per cell (wall_s is the minimum)")
    b.add_argument("--out", default=".",
                   help="directory for the BENCH_<tag>.json report")
    b.add_argument("--compare", metavar="BASELINE",
                   help="gate simulated output against a baseline "
                        "BENCH_*.json; exit non-zero on any divergence or "
                        "missing cell (wall clock is reported, not gated)")
    b.add_argument("--profile", metavar="DIR",
                   help="capture one extra cProfile run per cell: raw "
                        "pstats files in DIR plus a top-20 cumulative-time "
                        "table embedded in the report")
    b.add_argument("--verbose", "-v", action="store_true")
    b.add_argument("--json", action="store_true",
                   help="emit the report (plus compare verdict) as JSON")
    _add_device_flags(b)
    b.set_defaults(fn=cmd_bench)

    sv = sub.add_parser(
        "serve-bench",
        help="replay a synthetic query trace through repro.serve; "
             "report latency/throughput/cache JSON",
    )
    sv.add_argument("--queries", type=int, default=10_000,
                    help="trace length (default 10000)")
    sv.add_argument("--scale", type=float, default=0.25,
                    help="suite graph scale (default 0.25)")
    sv.add_argument("--max-graphs", type=int, default=4,
                    help="how many suite graphs to load (default 4)")
    sv.add_argument("--categories",
                    help="comma-separated suite categories (default all)")
    sv.add_argument("--solver", default="dijkstra",
                    choices=sorted(SOLVERS),
                    help="solver every query is answered with")
    sv.add_argument("--max-batch", type=int, default=32,
                    help="unique sources per dispatched batch")
    sv.add_argument("--cache-entries", type=int, default=64,
                    help="distance-cache capacity (full solves)")
    sv.add_argument("--burst", type=int, default=32,
                    help="submissions between synchronous drains")
    sv.add_argument("--seed", type=int, default=0,
                    help="trace RNG seed")
    sv.add_argument("--jobs", type=int, default=1,
                    help="session worker processes (1 = inline)")
    sv.add_argument("--tag", default=None, help="free-form label in the payload")
    sv.add_argument("--out", metavar="FILE",
                    help="also write the JSON payload to FILE")
    sv.add_argument("--no-verify", action="store_true",
                    help="skip the bit-exact re-solve of every served "
                         "(graph, source)")
    sv.add_argument("--updates", type=int, default=0, metavar="N",
                    help="interleave N edge-update batches per graph and "
                         "replay twice (incremental vs full re-solve); "
                         "0 = static replay (default)")
    sv.add_argument("--update-size", type=int, default=8, metavar="K",
                    help="edge updates per batch (default 8)")
    sv.add_argument("--verbose", "-v", action="store_true")
    sv.add_argument("--json", action="store_true",
                    help="print the payload as JSON")
    _add_device_flags(sv)
    sv.set_defaults(fn=cmd_serve_bench)

    ck = sub.add_parser(
        "check",
        help="fuzz solvers across perturbed schedules under the SRMW "
             "protocol checker (see docs/checking.md)",
    )
    ck.add_argument("--schedules", type=int, default=8,
                    help="perturbed schedules per cell (default 8)")
    ck.add_argument("--seed", type=int, default=0,
                    help="base seed; schedule i uses schedule_seed(seed, i)")
    ck.add_argument("--matrix", choices=sorted(MATRICES), default="small")
    ck.add_argument("--graph",
                    help="check one graph file instead of a matrix")
    ck.add_argument("--source", type=int, default=0,
                    help="source vertex for --graph (default 0)")
    ck.add_argument("--solvers", metavar="A,B,...",
                    help="comma-separated solver list "
                         "(default: the matrix's, or 'adds' with --graph)")
    ck.add_argument("--float", action="store_true",
                    help="load --graph weights as float")
    ck.add_argument("--no-replay", action="store_true",
                    help="skip the unchecked per-seed replay pass")
    ck.add_argument("--updates", type=int, default=0, metavar="N",
                    help="fuzz N-batch edge-update streams instead: "
                         "incremental re-solves (warm dijkstra, adds on "
                         "the canonical and --schedules perturbed seeds) must "
                         "be bit-identical to from-scratch solves")
    ck.add_argument("--update-size", type=int, default=8, metavar="K",
                    help="edge updates per batch with --updates (default 8)")
    ck.add_argument("--inject", choices=sorted(FAULTS),
                    help="TESTING: inject a protocol fault and expect "
                         "the checker to catch it")
    ck.add_argument("--verbose", "-v", action="store_true")
    ck.add_argument("--json", action="store_true",
                    help="emit the report as JSON")
    _add_device_flags(ck)
    ck.set_defaults(fn=cmd_check)

    t = sub.add_parser(
        "trace", help="run one solver with tracing; write Perfetto artifacts"
    )
    t.add_argument("graph")
    t.add_argument("--algorithm", "-a", choices=solver_names(accepts="tracer"),
                   default="adds")
    t.add_argument("--source", type=int, default=0)
    t.add_argument("--float", action="store_true")
    t.add_argument("--delta", type=float)
    t.add_argument("--out", default="trace_out",
                   help="directory for trace.json / counters.csv / summary.txt")
    t.add_argument("--json", action="store_true",
                   help="emit a machine-readable JSON result")
    _add_device_flags(t)
    t.set_defaults(fn=cmd_trace)

    v = sub.add_parser("verify", help="compare two *_final_dist files")
    v.add_argument("file_a")
    v.add_argument("file_b")
    v.add_argument("--atol", type=float, default=0.0)
    v.add_argument("--max-report", type=int, default=20)
    v.set_defaults(fn=cmd_verify)

    c = sub.add_parser("convert", help="convert DIMACS <-> binary GR")
    c.add_argument("input")
    c.add_argument("output")
    c.add_argument("--float", action="store_true")
    c.set_defaults(fn=cmd_convert)

    return ap


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    ns = build_parser().parse_args(argv)
    try:
        return ns.fn(ns)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
