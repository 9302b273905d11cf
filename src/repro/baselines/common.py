"""Shared result type, solver registry, and the uniform invocation API.

Every solver — the six baselines and ADDS — returns an
:class:`SSSPResult`, the analog of the artifact's ``*_result`` files
("Each line has 3 fields: Graph_name run_time work_count") plus the
distance vector used by ``verify_against_*`` and the parallelism timeline
used by Figures 11–15.

Solvers register with capability flags (:class:`SolverInfo`) so the
harness, CLI and experiment engine never special-case solver *names*:
``needs_device`` marks solvers that consume a
:class:`~repro.gpu.specs.DeviceSpec`/:class:`~repro.gpu.costmodel.CostModel`
pair, ``traceable`` marks solvers whose engine emits
:class:`~repro.trace.Tracer` events, and so on.  The uniform entry point
is :meth:`SolverInfo.solve` over a :class:`SolveRequest`; the per-solver
keyword signatures (``solve_adds(graph, source, spec=..., ...)``) remain
as thin legacy shims on top of the same functions.

.. versionchanged:: PR 2
   ``SOLVERS`` maps names to :class:`SolverInfo` (callable, so existing
   ``SOLVERS[name](graph, source)`` call sites keep working) instead of
   bare functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.errors import SolverError
from repro.gpu.timeline import Timeline
from repro.trace.metrics import MetricsRegistry, UNIFORM_SOLVER_KEYS

__all__ = [
    "RESULT_SCHEMA_VERSION",
    "SSSPResult",
    "SolveRequest",
    "SolverInfo",
    "SOLVERS",
    "register_solver",
    "get_solver",
    "get_solver_info",
    "solver_names",
    "init_distances",
    "init_tree",
    "resolve_sources",
    "solver_metrics",
]

#: Version of the JSON payloads emitted by :meth:`SSSPResult.to_json_dict`
#: and the CLI ``--json`` paths (documented in ``docs/schema.md``).  Bump
#: on any backwards-incompatible change to field names or semantics.
RESULT_SCHEMA_VERSION = 1


@dataclass
class SSSPResult:
    """The outcome of one SSSP run.

    Attributes
    ----------
    solver / graph_name / source:
        Provenance of the run.
    dist:
        float64 distances from the source; ``inf`` for unreachable
        vertices.  (Integer weights are exact in float64 far beyond any
        graph size used here.)
    work_count:
        Total vertices *processed* (edge-expanded), the paper's work
        metric — §3.1 defines work efficiency as its inverse.  Includes
        redundant re-expansions; excludes items discarded by a stale
        check or a dedup filter before expansion.
    time_us:
        Simulated wall time in microseconds.
    timeline:
        Parallelism (edge count in flight / available per superstep) over
        time.
    stats:
        Solver-specific extras (supersteps, final Δ, pool high-water, …).
        Numeric entries come from :attr:`metrics`; every solver reports
        at least the uniform key set
        :data:`~repro.trace.metrics.UNIFORM_SOLVER_KEYS`.
    metrics:
        The :class:`~repro.trace.MetricsRegistry` the solver populated
        (typed counters/gauges/histograms behind the flat ``stats``
        view); None for results built without one.
    """

    solver: str
    graph_name: str
    source: int
    dist: np.ndarray
    work_count: int
    time_us: float
    timeline: Timeline = field(repr=False, default_factory=Timeline)
    stats: Dict[str, object] = field(default_factory=dict)
    metrics: Optional[MetricsRegistry] = field(repr=False, default=None)
    #: shortest-path tree: predecessors[v] is the vertex preceding v on a
    #: shortest path from the source (-1 for the source itself and for
    #: unreachable vertices).  None if the solver did not track it.
    predecessors: Optional[np.ndarray] = field(repr=False, default=None)

    @property
    def work_efficiency(self) -> float:
        """The paper's §3.1 definition: inverse of vertices processed."""
        return 1.0 / self.work_count if self.work_count else float("inf")

    def reached(self) -> int:
        """Number of vertices with a finite distance."""
        return int(np.isfinite(self.dist).sum())

    def result_line(self) -> str:
        """The artifact's ``graph_name run_time work_count`` line
        (run time in seconds, as in the artifact)."""
        return f"{self.graph_name} {self.time_us / 1e6:.9f} {self.work_count}"

    def to_json_dict(self, *, include_dist: bool = False) -> Dict[str, object]:
        """A JSON-native dict of the run (the CLI ``--json`` payload).

        Distances are omitted by default (``--dist-out`` serves bulk
        output); ``include_dist=True`` inlines them with ``inf`` encoded
        as None, keeping the payload valid strict JSON.
        """
        out: Dict[str, object] = {
            "schema": RESULT_SCHEMA_VERSION,
            "solver": self.solver,
            "graph": self.graph_name,
            "source": int(self.source),
            "n_vertices": int(self.dist.size),
            "reached": self.reached(),
            "time_us": float(self.time_us),
            "work_count": int(self.work_count),
            "stats": _json_safe(self.stats),
        }
        if include_dist:
            out["dist"] = [
                float(d) if np.isfinite(d) else None for d in self.dist
            ]
        return out

    def path_to(self, target: int):
        """The shortest path ``[source, ..., target]`` from the tree.

        Requires the solver to have tracked predecessors; returns None for
        unreachable targets.  The walk is bounded by the vertex count, so
        a corrupted tree raises instead of looping.
        """
        if self.predecessors is None:
            raise SolverError(
                f"{self.solver} result has no predecessor tree; "
                "run the solver with predecessors enabled"
            )
        if not 0 <= target < self.dist.size:
            raise SolverError(f"target {target} out of range")
        if not np.isfinite(self.dist[target]):
            return None
        path = [int(target)]
        v = int(target)
        for _ in range(self.dist.size):
            # a root: the primary source, or (multi-source runs) any seed
            if self.predecessors[v] < 0 and self.dist[v] == 0.0:
                return path[::-1]
            v = int(self.predecessors[v])
            if v < 0:
                break
            path.append(v)
        raise SolverError(
            f"predecessor tree of {self.solver} on {self.graph_name} is "
            f"inconsistent at vertex {target}"
        )


def _json_safe(v):
    """Recursively coerce numpy scalars/arrays and non-finite floats to
    JSON-native values (non-finite floats become None)."""
    if isinstance(v, dict):
        return {str(k): _json_safe(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_safe(x) for x in v]
    if isinstance(v, np.ndarray):
        return [_json_safe(x) for x in v.tolist()]
    if hasattr(v, "item"):
        v = v.item()
    if isinstance(v, float) and not np.isfinite(v):
        return None
    return v


def solver_metrics(
    *,
    atomics: int = 0,
    fences: int = 0,
    kernel_launches: int = 0,
    work_count: int = 0,
) -> MetricsRegistry:
    """A registry pre-populated with the uniform solver key set
    (:data:`~repro.trace.metrics.UNIFORM_SOLVER_KEYS`), so every solver
    reports the same comparison vocabulary."""
    reg = MetricsRegistry()
    for key, value in zip(
        UNIFORM_SOLVER_KEYS, (atomics, fences, kernel_launches, work_count)
    ):
        reg.counter(key).inc(value)
    return reg


@dataclass
class SolveRequest:
    """One solver invocation, as a value.

    The uniform currency of the invocation API: the CLI, harness and
    :mod:`repro.engine` all describe "run solver X on graph G from source
    s with device D" as a ``SolveRequest`` and submit it through
    :meth:`SolverInfo.solve`.  Fields a solver does not understand are
    simply not forwarded (a CPU solver ignores ``spec``/``cost``; a
    non-traceable solver given a ``tracer`` is rejected loudly).

    Attributes
    ----------
    graph / source / sources:
        What to solve.  ``sources`` enables multi-source runs and must
        contain ``source`` (see :func:`resolve_sources`).
    spec / cost:
        Device model for solvers registered with ``needs_device``;
        ``None`` means the solver's own default (the calibrated scaled
        RTX 2080 Ti).
    delta:
        Initial/static Δ override for the delta-stepping family
        (``accepts_delta`` solvers).
    config:
        Solver configuration object (``accepts_config`` solvers; for
        ADDS an :class:`~repro.core.config.AddsConfig`).
    tracer:
        A :class:`~repro.trace.Tracer` for ``traceable`` solvers.
    scheduler:
        Registered :class:`~repro.core.scheduler.WorkScheduler` name
        (``accepts_scheduler`` solvers; for ADDS ``"bucket"`` or
        ``"mlmq"``).  ``None`` means the solver's default scheduler.
    warm_from / updates:
        Incremental re-solve (``accepts_updates`` solvers): ``warm_from``
        is the exact distance array of the same source on the graph
        *before* the edge changes described by ``updates`` (an
        :class:`~repro.dynamic.updates.EdgeDeltas`) were applied; the
        solver re-seeds from the dirty frontier instead of the source
        and produces distances bit-identical to a from-scratch solve
        (see ``docs/dynamic.md``).  ``updates`` without ``warm_from``
        is rejected; ``warm_from`` alone asserts the graph is unchanged.
    options:
        Extra solver-specific keyword arguments, forwarded verbatim
        (e.g. ``cpu=``/``cost=`` for the CPU cost models).
    """

    graph: "object"  # CSRGraph; typed loosely to avoid an import cycle
    source: int = 0
    sources: Optional[Sequence[int]] = None
    spec: Optional[object] = None
    cost: Optional[object] = None
    delta: Optional[float] = None
    config: Optional[object] = None
    tracer: Optional[object] = None
    scheduler: Optional[str] = None
    warm_from: Optional[np.ndarray] = None
    updates: Optional[object] = None  # EdgeDeltas; loose to avoid a cycle
    options: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class SolverInfo:
    """A registered solver: its callable plus declared capabilities.

    Calling the info object forwards to the legacy keyword signature, so
    code (and tests) written against ``get_solver(name)(graph, source,
    **kwargs)`` keeps working unchanged; :meth:`solve` is the uniform
    :class:`SolveRequest` entry point everything new should use.
    """

    name: str
    fn: Callable = field(repr=False)
    #: Consumes ``spec=``/``cost=`` (a simulated-GPU solver).
    needs_device: bool = False
    #: Accepts a ``tracer=`` and emits structured trace events.
    traceable: bool = False
    #: Accepts a ``delta=`` override (the delta-stepping family).
    accepts_delta: bool = False
    #: Accepts a ``config=`` object (currently only ADDS).
    accepts_config: bool = False
    #: Accepts a ``scheduler=`` WorkScheduler name (currently only ADDS).
    accepts_scheduler: bool = False
    #: Accepts ``warm_from=``/``updates=`` incremental re-solve seeds.
    accepts_updates: bool = False

    def __call__(self, graph, source: int = 0, **kwargs) -> "SSSPResult":
        """Legacy keyword-style invocation (thin shim over :attr:`fn`).

        .. deprecated:: PR 2
           Prefer :meth:`solve` with a :class:`SolveRequest`; this shim
           stays for existing call sites and per-solver keyword options.
        """
        return self.fn(graph, source, **kwargs)

    def solve(self, request: SolveRequest) -> "SSSPResult":
        """Run this solver on a :class:`SolveRequest`.

        Maps the request's uniform fields onto the solver's keyword
        signature according to the declared capabilities, rejecting
        fields the solver cannot honor (rather than silently dropping a
        requested tracer, Δ or config).
        """
        kwargs: Dict[str, object] = dict(request.options)
        if request.sources is not None:
            kwargs.setdefault("sources", request.sources)
        if self.needs_device:
            if request.spec is not None:
                kwargs.setdefault("spec", request.spec)
            if request.cost is not None:
                kwargs.setdefault("cost", request.cost)
        if request.tracer is not None:
            if not self.traceable:
                raise SolverError(
                    f"solver {self.name!r} does not support tracing; "
                    f"pick one of {solver_names(traceable=True)}"
                )
            kwargs.setdefault("tracer", request.tracer)
        if request.delta is not None:
            if not self.accepts_delta:
                raise SolverError(
                    f"solver {self.name!r} does not take a delta override"
                )
            kwargs.setdefault("delta", request.delta)
        if request.config is not None:
            if not self.accepts_config:
                raise SolverError(
                    f"solver {self.name!r} does not take a config object"
                )
            kwargs.setdefault("config", request.config)
        if request.scheduler is not None:
            if not self.accepts_scheduler:
                raise SolverError(
                    f"solver {self.name!r} does not take a scheduler; "
                    f"pick one of {solver_names(accepts_scheduler=True)}"
                )
            kwargs.setdefault("scheduler", request.scheduler)
        if request.warm_from is not None or request.updates is not None:
            if not self.accepts_updates:
                raise SolverError(
                    f"solver {self.name!r} does not take warm_from/updates; "
                    f"pick one of {solver_names(accepts_updates=True)}"
                )
            if request.warm_from is not None:
                kwargs.setdefault("warm_from", request.warm_from)
            if request.updates is not None:
                kwargs.setdefault("updates", request.updates)
        return self.fn(request.graph, request.source, **kwargs)


#: Registry mapping solver name -> :class:`SolverInfo` (callable, so the
#: pre-PR-2 ``SOLVERS[name](graph, source)`` idiom still works).
SOLVERS: Dict[str, SolverInfo] = {}


def register_solver(
    name: str,
    *,
    needs_device: bool = False,
    traceable: bool = False,
    accepts_delta: bool = False,
    accepts_config: bool = False,
    accepts_scheduler: bool = False,
    accepts_updates: bool = False,
) -> Callable:
    """Decorator registering a solver under its paper name.

    The keyword flags declare capabilities once, at registration time —
    they replace the ad-hoc ``GPU_SOLVERS``/``TRACEABLE_SOLVERS`` name
    sets the harness and CLI used to hard-code.
    """

    def deco(fn: Callable) -> Callable:
        if name in SOLVERS:
            raise SolverError(f"duplicate solver registration: {name}")
        SOLVERS[name] = SolverInfo(
            name=name,
            fn=fn,
            needs_device=needs_device,
            traceable=traceable,
            accepts_delta=accepts_delta,
            accepts_config=accepts_config,
            accepts_scheduler=accepts_scheduler,
            accepts_updates=accepts_updates,
        )
        return fn

    return deco


def get_solver(name: str) -> SolverInfo:
    """Look up a registered solver (``adds``, ``nf``, ``gun-bf``, ...).

    Returns the (callable) :class:`SolverInfo`, so both the legacy
    ``get_solver(name)(graph, source, **kwargs)`` idiom and the uniform
    ``get_solver(name).solve(request)`` path work.
    """
    try:
        return SOLVERS[name]
    except KeyError:
        raise SolverError(
            f"unknown solver {name!r}; available: {sorted(SOLVERS)}"
        ) from None


#: Alias making call sites that specifically want metadata read clearly.
get_solver_info = get_solver


def solver_names(
    *,
    needs_device: Optional[bool] = None,
    traceable: Optional[bool] = None,
    accepts_delta: Optional[bool] = None,
    accepts_config: Optional[bool] = None,
    accepts_scheduler: Optional[bool] = None,
    accepts_updates: Optional[bool] = None,
) -> list:
    """Sorted registered names, filtered by capability flags.

    ``None`` means "don't care"; e.g. ``solver_names(traceable=True)`` is
    the set the ``trace`` subcommand offers.
    """
    out = []
    for name, info in SOLVERS.items():
        if needs_device is not None and info.needs_device != needs_device:
            continue
        if traceable is not None and info.traceable != traceable:
            continue
        if accepts_delta is not None and info.accepts_delta != accepts_delta:
            continue
        if accepts_config is not None and info.accepts_config != accepts_config:
            continue
        if accepts_scheduler is not None and info.accepts_scheduler != accepts_scheduler:
            continue
        if accepts_updates is not None and info.accepts_updates != accepts_updates:
            continue
        out.append(name)
    return sorted(out)


def resolve_sources(n: int, source: int, sources) -> np.ndarray:
    """Normalize the (source, sources) solver arguments to an id array.

    Every solver takes a primary ``source`` plus an optional ``sources``
    sequence for multi-source SSSP (e.g. nearest-facility queries); when
    ``sources`` is given it must contain the primary.
    """
    if sources is None:
        sources = [source]
    arr = np.unique(np.asarray(list(sources), dtype=np.int64))
    if arr.size == 0:
        raise SolverError("need at least one source")
    if arr.min() < 0 or arr.max() >= n:
        raise SolverError(f"source out of range for {n} vertices")
    if source not in arr:
        raise SolverError("primary source must be listed in sources")
    return arr


def init_distances(n: int, source: int, sources=None) -> np.ndarray:
    """Fresh distance vector: ``inf`` everywhere except the source(s)."""
    srcs = resolve_sources(n, source, sources)
    dist = np.full(n, np.inf, dtype=np.float64)
    dist[srcs] = 0.0
    return dist


def init_tree(n: int) -> np.ndarray:
    """Fresh predecessor vector (-1 = no predecessor)."""
    return np.full(n, -1, dtype=np.int64)
