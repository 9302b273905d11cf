"""Per-layer host time from a cProfile run.

A layer is a module under ``src/repro``, named by its dotted path
(``src/repro/gpu/device.py`` is ``gpu.device``).  A repro function's
self time and call count go to its own layer.  A function outside
``src/repro`` (numpy, builtins) is charged to the repro functions that
called it, split by pstats' per-caller self times; when its caller is
itself outside repro, the charge climbs further, split by that caller's
per-caller cumulative times.  What reaches no repro function (the
benchmark's own loop, the profiler) is ``external``.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path
from typing import Dict, Optional, Tuple

#: Layers reported by name.  Each moves an end-to-end metric on some
#: workload; perf/README.md lists which.
NAMED = (
    "gpu.device",
    "gpu.memory",
    "core.scheduler",
    "core.bucket_queue",
    "core.block_alloc",
    "core.wtb",
    "core.mtb",
    "core.delta_controller",
    "graphs.csr",
    "baselines.nearfar",
    "baselines.dijkstra",
    "serve.session",
    "serve.batcher",
    "serve.cache",
    "engine.executor",
    "engine.worker",
    "dynamic.updates",
    "dynamic.frontier",
)
#: Every other repro module, summed.
OTHER = "other"
EXTERNAL = "external"

Func = Tuple[str, int, str]


def module_layer(filename: str, package_dir: Path) -> Optional[str]:
    """The dotted module path of ``filename`` under ``package_dir``, or
    ``None`` for code outside it."""
    try:
        rel = Path(filename).relative_to(package_dir)
    except ValueError:
        return None
    parts = rel.with_suffix("").parts
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or "repro"


def attribute(stats: Dict[Func, tuple], package_dir: Path) -> Dict[str, Dict[str, float]]:
    """``{layer: {"self_s", "calls"}}`` for every repro module in
    ``stats`` (a ``pstats.Stats.stats`` mapping), plus ``external``.
    The self times sum to the profile's total."""
    layer_of = {func: module_layer(func[0], package_dir) for func in stats}
    out: Dict[str, Dict[str, float]] = defaultdict(lambda: {"self_s": 0.0, "calls": 0})
    owners: Dict[Func, Dict[str, float]] = {}

    def owner_split(func: Func, visiting: frozenset) -> Dict[str, float]:
        """How time spent under ``func`` divides among layers."""
        layer = layer_of.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in owners:
            return owners[func]
        callers = stats[func][4] if func in stats else {}
        if func in visiting or not callers:
            return {EXTERNAL: 1.0}
        # per-caller entries are (nc, cc, tt, ct); weigh by ct, else calls
        col = 3 if sum(v[3] for v in callers.values()) > 0 else 0
        total = sum(v[col] for v in callers.values())
        split: Dict[str, float] = defaultdict(float)
        for caller, v in callers.items():
            for layer, frac in owner_split(caller, visiting | {func}).items():
                split[layer] += frac * v[col] / total
        owners[func] = dict(split)
        return owners[func]

    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        layer = layer_of[func]
        if layer is not None:
            out[layer]["self_s"] += tt
            out[layer]["calls"] += nc
            continue
        charged = 0.0
        for caller, v in callers.items():
            for owner, frac in owner_split(caller, frozenset({func})).items():
                out[owner]["self_s"] += v[2] * frac
            charged += v[2]
        out[EXTERNAL]["self_s"] += tt - charged
    return dict(out)


def layer_metrics(layers: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Flatten :func:`attribute`'s map into ``<layer>.self_s`` and
    ``<layer>.calls`` for :data:`NAMED`, ``other.*`` for the remaining
    repro modules and ``external.self_s``."""
    metrics: Dict[str, float] = {}
    for name in NAMED + (OTHER,):
        metrics[f"{name}.self_s"] = 0.0
        metrics[f"{name}.calls"] = 0
    for layer, v in layers.items():
        if layer == EXTERNAL:
            continue
        name = layer if layer in NAMED else OTHER
        metrics[f"{name}.self_s"] += v["self_s"]
        metrics[f"{name}.calls"] += int(v["calls"])
    metrics[f"{EXTERNAL}.self_s"] = layers.get(EXTERNAL, {"self_s": 0.0})["self_s"]
    return metrics
