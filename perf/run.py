"""Run the benchmark.

    python3 perf/run.py [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--out FILE]

With ``--workload`` the workload runs in this process and the last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the ``end_to_end`` metrics of
``BENCHMARK.json`` untraced, its ``per_layer`` metrics traced).  Without
it, every workload runs in its own fresh process, one after another, and
``--trace`` adds one traced process per workload.  ``--out`` writes every
report, with all metrics, to one JSON file; traced runs also write their
profile beside it as ``<FILE stem>.<workload>.pstats``.

``--seconds`` (default: ``run_seconds`` of ``BENCHMARK.json``) is how
much timed work a run accumulates.  Runs of different lengths do not
compare, and ``compare.py`` refuses them.

Exit status: 0 when every answer matched the oracle, 1 when any did not
or the benchmark could not run (no ``src/repro`` in the checkout, moved
input fingerprints).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import List, Optional

from metrics import ROOT, load_benchmark, unit_of


def _use_checkout_sources() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perf: no repro sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def _pin_malloc_threshold() -> None:
    """Hold glibc's mmap threshold at 1 MiB.  Left dynamic, it rises when
    a large block is freed; large arrays then come from the heap, whose
    fragmentation made peak RSS of identical runs differ by up to 30 MB.
    At 1 MiB set-up and solve times match the default; at glibc's initial
    128 KiB, set-up took 30% longer."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # not glibc
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    M_MMAP_THRESHOLD = -3
    mallopt(M_MMAP_THRESHOLD, 1024 * 1024)


def measure(name: str, seed: int, seconds: float, trace: bool,
            pstats_path: Optional[str] = None) -> dict:
    """Run one workload in this process; returns its report."""
    _pin_malloc_threshold()
    _use_checkout_sources()
    import workloads

    try:
        outcome = workloads.run(name, seed, seconds, trace=trace)
    except workloads.BenchError as exc:
        raise SystemExit(f"perf: {exc}") from None
    if pstats_path and outcome.profile is not None:
        outcome.profile.dump_stats(pstats_path)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": outcome.metrics,
        "layers": outcome.layers,
    }


def _in_fresh_process(*args) -> dict:
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        return pool.submit(measure, *args).result()


def _print_report(report: dict) -> None:
    kind = "traced" if report["trace"] else "untraced"
    print(f"{report['workload']}  seed {report['seed']}  {kind}  "
          f"attempted {report['attempted']}  failed {report['failed']}")
    for name, value in sorted(report["metrics"].items()):
        print(f"  {name:42s} {value:>16.6g} {unit_of(name)}")


def _result_line(report: dict, wanted: List[dict]) -> str:
    missing = [m["name"] for m in wanted if m["name"] not in report["metrics"]]
    if missing:
        raise SystemExit(f"perf: {report['workload']} did not measure {missing}")
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            m["name"]: {"value": report["metrics"][m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    })


def main(argv: Optional[List[str]] = None) -> int:
    # Read by numpy when it loads, here or in a child: one BLAS thread per
    # process, and no transparent huge pages for large arrays, which made
    # peak RSS jump by 15 MB at random between identical runs.
    for var, value in (("OMP_NUM_THREADS", "1"), ("OPENBLAS_NUM_THREADS", "1"),
                       ("MKL_NUM_THREADS", "1"), ("NUMPY_MADVISE_HUGEPAGE", "0")):
        os.environ.setdefault(var, value)
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    _use_checkout_sources()
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)

    def pstats_path(name):
        if args.out is None:
            return None
        return str(args.out.with_name(f"{args.out.stem}.{name}.pstats"))

    if args.workload:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                         pstats_path(args.workload))
        reports = [report]
    else:
        reports = [_in_fresh_process(n, args.seed, args.seconds, False) for n in names]
        if args.trace:
            reports += [
                _in_fresh_process(n, args.seed, args.seconds, True, pstats_path(n))
                for n in names
            ]
    for report in reports:
        _print_report(report)
    if args.out is not None:
        args.out.write_text(json.dumps({"seed": args.seed, "reports": reports}, indent=1))
    if args.workload:
        print(_result_line(report, bench["per_layer" if args.trace else "end_to_end"]))
    return 0 if all(r["correct"] for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
