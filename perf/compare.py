"""Judge a change against its parent commit from paired benchmark runs.

    python3 perf/compare.py --parent P1.json ... P10.json --change C1.json ... C10.json

Each file is the ``--out`` report of one untraced ``perf/run.py`` run.
File ``i`` of the parent pairs with file ``i`` of the change; make at
least ten pairs with identical settings, alternating which side runs
first.  Each metric of each workload gets its own row and verdict:

``gain``
    the change is better in at least 9 of 10 pairs (ties count for
    neither) and its median is better than the parent's by more than the
    parent's interquartile range;
``regression``
    otherwise, the change's median is worse than the parent's by more
    than the metric's bound;
``unresolved``
    otherwise, either side's spread (IQR / median) exceeds the bound, so
    "no worse" cannot be shown, and not every change run beats every
    parent run;
``ok``
    none of the above;
``same`` / ``changed``
    exact metrics (simulated results), which must repeat bit for bit
    within each pair.

The comparison fails outright on runs that failed the oracle, on a
workload or metric missing from some runs, on runs measured for
different ``--seconds``, and on a pair whose sides ran different seeds.
Exit status 1 on any of these, a regression or a changed exact metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from metrics import load_benchmark, quartiles, spread

MIN_PAIRS = 10
WIN_SHARE = 0.9
#: Reported beside the end-to-end metrics but not in BENCHMARK.json,
#: because they exist on some workloads only: (better, bound).
EXTRA_BOUNDS = {
    "nf_ms.p50": ("lower", 0.25),
    "update_ms.p50": ("lower", 0.25),
}
#: Deterministic simulated results; any difference is a behaviour change.
EXACT = ("sim_speedup", "adds_work_per_vertex")


def judge(parent: Sequence[float], change: Sequence[float], better: str,
          bound: float) -> str:
    """The verdict for one metric of one workload over paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    q1, med_p, q3 = quartiles(parent)
    med_c = statistics.median(change)
    if wins >= WIN_SHARE * len(parent) and sign * (med_c - med_p) > q3 - q1:
        return "gain"
    if sign * (med_c - med_p) < -bound * abs(med_p):
        return "regression"
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if max(spread(parent), spread(change)) > bound and not every_run_better:
        return "unresolved"
    return "ok"


def _load(paths: Sequence[Path]) -> List[Dict[str, dict]]:
    """Per file: workload -> untraced report."""
    runs = []
    for path in paths:
        reports = json.loads(Path(path).read_text())["reports"]
        runs.append({r["workload"]: r for r in reports if not r["trace"]})
    return runs


def _settings_problems(parent: List[Dict[str, dict]],
                       change: List[Dict[str, dict]]) -> List[str]:
    """Runs measured for different lengths, or pairs run with different
    seeds, cannot be compared."""
    problems = []
    lengths = {r["seconds"] for run in parent + change for r in run.values()}
    if len(lengths) > 1:
        problems.append(f"runs measured for different --seconds: {sorted(lengths)}")
    for i, (p, c) in enumerate(zip(parent, change)):
        seeds = {r["seed"] for r in list(p.values()) + list(c.values())}
        if len(seeds) > 1:
            problems.append(f"pair {i + 1} ran different seeds: {sorted(seeds)}")
    return problems


def compare(parent: List[Dict[str, dict]], change: List[Dict[str, dict]],
            bench: dict) -> Tuple[List[dict], List[str]]:
    """Rows of the comparison, and the problems that fail it."""
    bounds = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    end_to_end = set(bounds)
    bounds.update(EXTRA_BOUNDS)
    rows: List[dict] = []
    problems = _settings_problems(parent, change)
    for workload in [w["name"] for w in bench["workloads"]]:
        missing = sum(workload not in run for run in parent + change)
        if missing:
            problems.append(f"{workload}: missing from {missing} runs")
            continue
        for side, runs in (("parent", parent), ("change", change)):
            failed = sum(run[workload]["failed"] for run in runs)
            if failed:
                problems.append(f"{workload}: {failed} failed answers in the {side} runs")
        seen = [set(run[workload]["metrics"]) for run in parent + change]
        everywhere = set.intersection(*seen)
        # every end-to-end metric must be in every run; a judged one in
        # all runs of a workload or in none (update_ms.p50 on serve-hot)
        judged = set.union(*seen) & (set(bounds) | set(EXACT))
        for name in sorted((judged | end_to_end) - everywhere):
            problems.append(f"{workload} {name}: missing from some runs")
        for name in sorted(everywhere):
            p = [run[workload]["metrics"][name] for run in parent]
            c = [run[workload]["metrics"][name] for run in change]
            if name in EXACT:
                verdict = "same" if p == c else "changed"
            elif name in bounds:
                verdict = judge(p, c, *bounds[name])
            else:
                continue
            if verdict in ("regression", "changed"):
                problems.append(f"{workload} {name}: {verdict}")
            rows.append({"workload": workload, "metric": name, "parent": quartiles(p),
                         "change": quartiles(c), "verdict": verdict})
    return rows, problems


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", nargs="+", type=Path, required=True)
    ap.add_argument("--change", nargs="+", type=Path, required=True)
    args = ap.parse_args(argv)
    if len(args.parent) != len(args.change) or len(args.parent) < MIN_PAIRS:
        ap.error(f"need the same number of parent and change runs, at least {MIN_PAIRS}")
    rows, problems = compare(_load(args.parent), _load(args.change), load_benchmark())

    def cell(q):
        return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"

    print(f"{'workload':14s} {'metric':22s} {'parent median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'delta':>7s}  verdict")
    for r in rows:
        pm, cm = r["parent"][1], r["change"][1]
        delta = (cm - pm) / abs(pm) if pm else 0.0
        print(f"{r['workload']:14s} {r['metric']:22s} {cell(r['parent']):34s} "
              f"{cell(r['change']):34s} {delta:>+7.1%}  {r['verdict']}")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
