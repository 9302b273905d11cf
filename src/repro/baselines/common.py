"""Shared result type, solver registry, and the uniform invocation API.

Every solver — the six baselines and ADDS — returns an
:class:`SSSPResult`, the analog of the artifact's ``*_result`` files
("Each line has 3 fields: Graph_name run_time work_count") plus the
distance vector used by ``verify_against_*`` and the parallelism timeline
used by Figures 11–15.

Solvers register by name (:func:`register_solver`), and the option keys
each one accepts are read from its own keyword-only parameters, so the
harness, CLI and experiment engine never special-case solver *names*: a
solver taking ``spec=`` runs on the simulated device, one taking
``tracer=`` emits :class:`~repro.trace.Tracer` events, and so on.  The
uniform entry point is :meth:`SolverInfo.solve` over a
:class:`SolveRequest`, whose :class:`Options` carry every per-solve
setting.
"""

from __future__ import annotations

import inspect
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterator, Optional

import numpy as np

from repro.errors import SolverError
from repro.gpu.timeline import Timeline
from repro.graphs.csr import gather_edges
from repro.trace.export import json_safe
from repro.trace.metrics import UNIFORM_SOLVER_KEYS

__all__ = [
    "RESULT_SCHEMA_VERSION",
    "Options",
    "SSSPResult",
    "SolveRequest",
    "SolverInfo",
    "SOLVERS",
    "register_solver",
    "get_solver",
    "solver_names",
    "init_distances",
    "init_tree",
    "make_frontier_relax",
    "resolve_sources",
    "uniform_stats",
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
        Every count is a Python ``int``; every solver reports at least
        the uniform key set
        :data:`~repro.trace.metrics.UNIFORM_SOLVER_KEYS`, first.
    """

    solver: str
    graph_name: str
    source: int
    dist: np.ndarray
    work_count: int
    time_us: float
    timeline: Timeline = field(repr=False, default_factory=Timeline)
    stats: Dict[str, object] = field(default_factory=dict)
    #: shortest-path tree: predecessors[v] is the vertex preceding v on a
    #: shortest path from the source (-1 for the source itself and for
    #: unreachable vertices).  None if the solver did not track it.
    predecessors: Optional[np.ndarray] = field(repr=False, default=None)

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
            "stats": json_safe(self.stats),
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


def uniform_stats(
    *,
    atomics: int = 0,
    fences: int = 0,
    kernel_launches: int = 0,
    work_count: int = 0,
) -> Dict[str, int]:
    """The uniform solver key set
    (:data:`~repro.trace.metrics.UNIFORM_SOLVER_KEYS`) as Python ``int``
    counts, so every solver's ``stats`` open with the same comparison
    vocabulary."""
    return dict(
        zip(
            UNIFORM_SOLVER_KEYS,
            map(int, (atomics, fences, kernel_launches, work_count)),
        )
    )


class Options(Mapping):
    """A frozen mapping of per-solve options: keyword arguments for the
    solver function.

    Built like a dict (``None`` builds an empty one); entries whose value
    is ``None`` are dropped, because ``None`` already means "the solver's
    default" in every solver signature.  Picklable, so cells carry it to
    worker processes.
    """

    def __init__(self, items=None, **kwargs) -> None:
        items = dict(items or (), **kwargs)
        self._items = {k: v for k, v in items.items() if v is not None}

    def __getitem__(self, key: str) -> object:
        return self._items[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        return f"Options({self._items!r})"

    def to_json(self) -> Dict[str, object]:
        """The JSON-native scalar entries (what a report records);
        objects such as a config or a tracer are left out."""
        return {
            k: v for k, v in sorted(self._items.items())
            if isinstance(v, (str, int, float, bool))
        }


@dataclass(frozen=True)
class SolveRequest:
    """One solver invocation, as a value.

    The uniform currency of the invocation API: the CLI, harness and
    :mod:`repro.engine` all describe "run solver X on graph G from source
    s with device D" as a ``SolveRequest`` and submit it through
    :meth:`SolverInfo.solve`.

    Attributes
    ----------
    graph / source:
        What to solve.
    spec / cost:
        Device model, forwarded only to device solvers (those taking a
        ``spec=``); ``None`` means the solver's own default (the
        calibrated scaled RTX 2080 Ti).
    options:
        Every other per-solve setting, as keyword arguments of the
        solver function: ``sources``, ``delta``, ``config``, ``tracer``,
        ``perturb_seed``, ``warm_from``/``updates`` and so on.  A key the
        solver does not take is rejected (see :meth:`SolverInfo.solve`).
    """

    graph: "object"  # CSRGraph; typed loosely to avoid an import cycle
    source: int = 0
    spec: Optional[object] = None
    cost: Optional[object] = None
    options: Mapping[str, object] = field(default_factory=Options)

    def __post_init__(self) -> None:
        object.__setattr__(self, "options", Options(self.options))


@dataclass(frozen=True)
class SolverInfo:
    """A registered solver: its function plus the option keys it takes."""

    name: str
    fn: Callable = field(repr=False)
    #: Keyword-only parameters of :attr:`fn`, read once at registration.
    params: FrozenSet[str] = frozenset()

    def accepts(self, key: str) -> bool:
        """Whether the solver takes option ``key`` (``"spec"`` marks a
        simulated-GPU solver, ``"tracer"`` a traceable one)."""
        return key in self.params

    def solve(self, request: SolveRequest) -> "SSSPResult":
        """Run this solver on a :class:`SolveRequest`.

        Every option must be a keyword parameter of the solver; one that
        is not raises :class:`SolverError` naming the solvers that take
        it, rather than silently dropping a requested tracer, Δ or
        config.  The device pair goes only to device solvers.
        """
        for key in request.options:
            if key not in self.params:
                raise SolverError(
                    f"solver {self.name!r} does not take option {key!r}; "
                    f"solvers that do: {solver_names(accepts=key) or 'none'}"
                )
        kwargs = dict(request.options)
        if "spec" in self.params:
            if request.spec is not None:
                kwargs.setdefault("spec", request.spec)
            if request.cost is not None:
                kwargs.setdefault("cost", request.cost)
        return self.fn(request.graph, request.source, **kwargs)


#: Registry mapping solver name -> :class:`SolverInfo`.
SOLVERS: Dict[str, SolverInfo] = {}


def register_solver(name: str) -> Callable:
    """Decorator registering a solver under its paper name.

    The option keys the solver accepts are its keyword-only parameters,
    read once here; callers never declare them separately.
    """

    def deco(fn: Callable) -> Callable:
        if name in SOLVERS:
            raise SolverError(f"duplicate solver registration: {name}")
        params = frozenset(
            p.name
            for p in inspect.signature(fn).parameters.values()
            if p.kind is inspect.Parameter.KEYWORD_ONLY
        )
        SOLVERS[name] = SolverInfo(name=name, fn=fn, params=params)
        return fn

    return deco


def get_solver(name: str) -> SolverInfo:
    """Look up a registered solver (``adds``, ``nf``, ``gun-bf``, ...);
    run it with ``get_solver(name).solve(request)``."""
    try:
        return SOLVERS[name]
    except KeyError:
        raise SolverError(
            f"unknown solver {name!r}; available: {sorted(SOLVERS)}"
        ) from None


def solver_names(*, accepts: Optional[str] = None) -> list:
    """Sorted registered names; with ``accepts``, only the solvers that
    take that option (e.g. ``solver_names(accepts="tracer")`` is the set
    the ``trace`` subcommand offers)."""
    return sorted(
        name for name, info in SOLVERS.items()
        if accepts is None or info.accepts(accepts)
    )


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


def make_frontier_relax(graph, mem, dist: np.ndarray, pred: np.ndarray):
    """The BSP baselines' relax step as one per-solve closure.

    NF, Gun-NF, Gun-BF, NV and CPU-DS all run the same step: expand the
    frontier, ``atomicMin`` every out-edge, keep the winners.
    ``relax(frontier)`` gathers the frontier's out-edges and relaxes them
    with one :meth:`~repro.gpu.memory.SimMemory.atomic_min_batch` on
    ``dist``, each winning entry storing its source into ``pred``.  It
    returns ``(edges, improved)``: the edge count and the improved
    destinations, one per winning entry, in batch order.

    The column indices and weights are cast to int64 and float64 once
    here, so no superstep copies them again.  The casts are exact, so
    candidates equal those computed from the graph's own arrays.
    """
    row_offsets = graph.row_offsets
    col_indices = graph.col_indices.astype(np.int64)
    weights = graph.weights.astype(np.float64)

    def relax(frontier: np.ndarray):
        srcs, dsts, ws = gather_edges(row_offsets, col_indices, weights, frontier)
        winners = mem.atomic_min_batch(
            dist, dsts, dist[srcs] + ws, payload=srcs, payload_out=pred
        )
        return int(dsts.size), dsts[winners]

    return relax
