"""Synthetic graph generators covering the paper's structural classes.

The paper's corpus (§6.1.1) draws from three families it analyzes
explicitly, plus general SuiteSparse matrices:

- **road networks** — "relatively uniform graphs with low bounded degree
  that are approximately planar, so they have high diameters";
  → :func:`grid_road` and :func:`random_geometric`.
- **power-law graphs** (``rmat22`` etc.) — "a small number of vertices have
  extremely high degree, while the vast majority have low degree";
  → :func:`rmat`.
- **random graphs** — "typically use a binomial distribution of node
  degrees"; → :func:`random_gnm`.
- **FEM / discretization matrices** (``msdoor``, ``BenElechi1``) — banded,
  regular, mid diameter; → :func:`fem_mesh`.
- **optimization matrices** (``c-big``) — a few huge rows over a cloud of
  small ones, very low diameter, tiny total runtime; → :func:`clique_chain`.

All generators are deterministic given ``seed`` and return int32-weighted
:class:`~repro.graphs.csr.CSRGraph` objects (call :meth:`CSRGraph.as_float`
for the float flavour).  Every generator emits each undirected edge in both
directions, as Lonestar's ``.gr`` road/rmat inputs do.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import GraphConstructionError
from repro.graphs.csr import CSRGraph, from_edge_list

__all__ = [
    "grid_road",
    "rmat",
    "random_gnm",
    "random_geometric",
    "fem_mesh",
    "clique_chain",
    "update_stream",
]


def _weights(
    rng: np.random.Generator, m: int, max_weight: int, style: str = "uniform"
) -> np.ndarray:
    """Integer edge weights in ``[1, max_weight]``.

    ``"uniform"`` is the Lonestar convention.  ``"heavy"`` draws from a
    lognormal (median ≈ 4, σ = 3.0) clipped to the range — the
    decades-spanning value distribution of SuiteSparse FEM/optimization
    matrices.  Heavy tails matter to this paper specifically: they inflate
    the *average* weight, so the Davidson Δ = C·(W/D) heuristic lands far
    from the typical edge weight and Near-Far's band ordering collapses —
    the regime where ADDS's dynamic Δ recovers the lost work efficiency.
    """
    if max_weight < 1:
        raise GraphConstructionError("max_weight must be >= 1")
    if style == "uniform":
        return rng.integers(1, max_weight + 1, size=m).astype(np.float64)
    if style == "heavy":
        w = np.exp(rng.normal(np.log(4.0), 3.0, size=m))
        return np.clip(np.rint(w), 1, max_weight).astype(np.float64)
    raise GraphConstructionError(f"unknown weight style {style!r}")


def _bidirect(src: np.ndarray, dst: np.ndarray, w: np.ndarray):
    """Duplicate every edge in the reverse direction with the same weight."""
    return (
        np.concatenate([src, dst]),
        np.concatenate([dst, src]),
        np.concatenate([w, w]),
    )


def grid_road(
    width: int,
    height: int,
    *,
    max_weight: int = 8192,
    diagonal_fraction: float = 0.0,
    seed: int = 0,
    name: Optional[str] = None,
) -> CSRGraph:
    """A road-network analog: a ``width × height`` 4-connected grid.

    Grids reproduce the properties the paper leans on for road graphs:
    bounded degree (≤ 4), approximate planarity and diameter
    Θ(width + height).  ``diagonal_fraction`` optionally adds a sprinkling
    of diagonal shortcuts, roughly modelling highways.

    The default ``max_weight`` mirrors the wide weight range of DIMACS road
    inputs (travel times), which is what makes Δ selection interesting.
    """
    if width < 1 or height < 1:
        raise GraphConstructionError("grid dimensions must be positive")
    rng = np.random.default_rng(seed)
    n = width * height
    idx = np.arange(n, dtype=np.int64)
    x = idx % width
    y = idx // width

    right_src = idx[x < width - 1]
    right_dst = right_src + 1
    down_src = idx[y < height - 1]
    down_dst = down_src + width
    src = np.concatenate([right_src, down_src])
    dst = np.concatenate([right_dst, down_dst])

    if diagonal_fraction > 0:
        cand = idx[(x < width - 1) & (y < height - 1)]
        take = rng.random(cand.size) < diagonal_fraction
        d_src = cand[take]
        src = np.concatenate([src, d_src])
        dst = np.concatenate([dst, d_src + width + 1])

    w = _weights(rng, src.size, max_weight)
    src, dst, w = _bidirect(src, dst, w)
    return from_edge_list(
        n,
        np.stack([src, dst, w], axis=1),
        name=name or f"road-{width}x{height}",
    )


def rmat(
    scale: int,
    *,
    edge_factor: int = 8,
    a: float = 0.45,
    b: float = 0.15,
    c: float = 0.15,
    max_weight: int = 100,
    weight_style: str = "uniform",
    bidirectional: bool = False,
    seed: int = 0,
    name: Optional[str] = None,
) -> CSRGraph:
    """An R-MAT power-law graph with ``2**scale`` vertices.

    Uses the classic recursive-matrix construction with GTgraph's default
    quadrant probabilities (0.45/0.15/0.15/0.25 — the generator behind the
    Lonestar ``rmat*`` inputs), which keep ≥75 % of vertices reachable from
    the hub as the paper's selection criterion requires.  Directed by
    default, like the Lonestar rmat inputs; duplicate edges are collapsed
    to their minimum-weight copy.
    """
    if scale < 1 or scale > 26:
        raise GraphConstructionError("rmat scale must be in [1, 26]")
    if min(a, b, c) < 0 or a + b + c >= 1.0:
        raise GraphConstructionError("rmat probabilities must satisfy a+b+c < 1")
    rng = np.random.default_rng(seed)
    n = 1 << scale
    m = n * edge_factor
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    # Each bit level picks a quadrant independently (vectorized over edges).
    for level in range(scale):
        r = rng.random(m)
        go_right = ((r >= a) & (r < a + b)) | (r >= a + b + c)
        go_down = r >= a + b
        src = src * 2 + go_down
        dst = dst * 2 + go_right
    w = _weights(rng, m, max_weight, weight_style)
    # Drop self loops; they never affect SSSP but inflate edge counts.
    keep = src != dst
    src, dst, w = src[keep], dst[keep], w[keep]
    if bidirectional:
        src, dst, w = _bidirect(src, dst, w)
    return from_edge_list(
        n,
        np.stack([src, dst, w], axis=1),
        name=name or f"rmat{scale}",
        dedupe=True,
    )


def random_gnm(
    n: int,
    m: int,
    *,
    max_weight: int = 100,
    weight_style: str = "uniform",
    bidirectional: bool = True,
    seed: int = 0,
    name: Optional[str] = None,
) -> CSRGraph:
    """A uniform random graph with ``n`` vertices and ~``m`` distinct edges.

    Degree distribution is binomial, matching the paper's description of
    "random graphs".  Low diameter (Θ(log n / log(m/n))).
    """
    if n < 2:
        raise GraphConstructionError("random_gnm needs n >= 2")
    rng = np.random.default_rng(seed)
    # Oversample then dedupe; for the sparse regimes used here the
    # collision rate is tiny.
    over = int(m * 1.1) + 16
    src = rng.integers(0, n, size=over)
    dst = rng.integers(0, n, size=over)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    key = src * n + dst
    _, first = np.unique(key, return_index=True)
    first = np.sort(first)[:m]
    src, dst = src[first], dst[first]
    w = _weights(rng, src.size, max_weight, weight_style)
    if bidirectional:
        src, dst, w = _bidirect(src, dst, w)
    return from_edge_list(
        n,
        np.stack([src, dst, w], axis=1),
        name=name or f"gnm-{n}-{m}",
        dedupe=True,
    )


def random_geometric(
    n: int,
    *,
    k: int = 6,
    max_weight: int = 4096,
    seed: int = 0,
    name: Optional[str] = None,
) -> CSRGraph:
    """A k-nearest-neighbour graph of random points in the unit square.

    An irregular road-network analog: low bounded degree, spatially local
    edges, high diameter (Θ(sqrt(n / k))).  Weights scale with Euclidean
    distance so that priority order correlates with geometry, as it does
    for real road travel times.
    """
    if n < k + 1:
        raise GraphConstructionError("random_geometric needs n > k")
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    # Bucket points into a grid so neighbour search is near-linear.
    cells = max(1, int(np.sqrt(n / max(k, 1))))
    cell_of = np.minimum((pts * cells).astype(np.int64), cells - 1)
    cell_id = cell_of[:, 0] * cells + cell_of[:, 1]
    order = np.argsort(cell_id, kind="stable")
    src_list, dst_list, w_list = [], [], []
    starts = np.searchsorted(cell_id[order], np.arange(cells * cells + 1))
    for cx in range(cells):
        for cy in range(cells):
            cid = cx * cells + cy
            mine = order[starts[cid] : starts[cid + 1]]
            if mine.size == 0:
                continue
            cand = []
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    nx, ny = cx + dx, cy + dy
                    if 0 <= nx < cells and 0 <= ny < cells:
                        nid = nx * cells + ny
                        cand.append(order[starts[nid] : starts[nid + 1]])
            cand = np.concatenate(cand)
            d2 = ((pts[mine, None, :] - pts[None, cand, :]) ** 2).sum(axis=2)
            kk = min(k + 1, cand.size)
            nearest = np.argpartition(d2, kk - 1, axis=1)[:, :kk]
            for i, v in enumerate(mine):
                for j in nearest[i]:
                    u = cand[j]
                    if u != v:
                        src_list.append(v)
                        dst_list.append(u)
                        w_list.append(np.sqrt(d2[i, j]))
    src = np.asarray(src_list, dtype=np.int64)
    dst = np.asarray(dst_list, dtype=np.int64)
    dist = np.asarray(w_list)
    scale = max_weight / max(dist.max(), 1e-12)
    w = np.maximum(1, np.rint(dist * scale))
    src, dst, w = _bidirect(src, dst, w)
    return from_edge_list(
        n,
        np.stack([src, dst, w], axis=1),
        name=name or f"geo-{n}-k{k}",
        dedupe=True,
    )


def fem_mesh(
    n: int,
    *,
    band: int = 24,
    stride: int = 5,
    max_weight: int = 64,
    weight_style: str = "uniform",
    seed: int = 0,
    name: Optional[str] = None,
) -> CSRGraph:
    """A banded finite-element-style mesh (``msdoor`` / ``BenElechi1`` analog).

    Vertex ``v`` connects to ``v + j*stride`` for ``j = 1 .. band/stride``
    plus its immediate successor, giving the regular mid-degree, mid-diameter
    band structure of FEM discretization matrices.  Weights are drawn from a
    narrow range, as matrix-derived weights typically are.
    """
    if n < band + 2:
        raise GraphConstructionError("fem_mesh needs n > band + 1")
    if stride < 1:
        raise GraphConstructionError("stride must be >= 1")
    rng = np.random.default_rng(seed)
    idx = np.arange(n, dtype=np.int64)
    offsets = [1] + [j * stride for j in range(1, band // stride + 1)]
    src_parts, dst_parts = [], []
    for off in sorted(set(offsets)):
        s = idx[: n - off]
        src_parts.append(s)
        dst_parts.append(s + off)
    src = np.concatenate(src_parts)
    dst = np.concatenate(dst_parts)
    w = _weights(rng, src.size, max_weight, weight_style)
    src, dst, w = _bidirect(src, dst, w)
    return from_edge_list(
        n,
        np.stack([src, dst, w], axis=1),
        name=name or f"mesh-{n}-b{band}",
    )


def clique_chain(
    num_cliques: int,
    clique_size: int,
    *,
    max_weight: int = 16,
    weight_style: str = "uniform",
    seed: int = 0,
    name: Optional[str] = None,
) -> CSRGraph:
    """A chain of dense cliques (``c-big`` analog).

    Optimization matrices like ``c-big`` mix a few very dense rows with
    many sparse ones and have tiny diameters, so the whole SSSP finishes in
    a few waves — the regime where the paper says ADDS's dynamic Δ cannot
    ramp up quickly enough (Figure 15).  A chain of cliques reproduces
    this: huge intra-clique parallelism, a short critical path across the
    chain.
    """
    if num_cliques < 1 or clique_size < 2:
        raise GraphConstructionError("need num_cliques >= 1 and clique_size >= 2")
    rng = np.random.default_rng(seed)
    n = num_cliques * clique_size
    local = np.arange(clique_size, dtype=np.int64)
    a, b = np.meshgrid(local, local, indexing="ij")
    mask = a < b
    ca, cb = a[mask], b[mask]
    src_parts, dst_parts = [], []
    for c in range(num_cliques):
        base = c * clique_size
        src_parts.append(ca + base)
        dst_parts.append(cb + base)
        if c + 1 < num_cliques:
            # one bridge edge to the next clique
            src_parts.append(np.array([base + clique_size - 1], dtype=np.int64))
            dst_parts.append(np.array([base + clique_size], dtype=np.int64))
    src = np.concatenate(src_parts)
    dst = np.concatenate(dst_parts)
    w = _weights(rng, src.size, max_weight, weight_style)
    src, dst, w = _bidirect(src, dst, w)
    return from_edge_list(
        n,
        np.stack([src, dst, w], axis=1),
        name=name or f"cliques-{num_cliques}x{clique_size}",
    )


def update_stream(
    graph: CSRGraph,
    *,
    batches: int = 4,
    batch_size: int = 8,
    seed: int = 0,
    p_insert: float = 0.1,
    p_delete: float = 0.1,
    max_weight: Optional[int] = None,
    name: Optional[str] = None,
):
    """A deterministic stream of edge-update batches for ``graph``.

    The time-varying analogue of the graph generators above: given a
    (typically suite-generated) graph, produce ``batches`` sequential
    :class:`~repro.dynamic.updates.UpdateBatch` objects — mostly weight
    increases/decreases (the congestion model), with ``p_insert`` /
    ``p_delete`` fractions of topology changes — that are valid when
    applied **in order** starting from ``graph``.  The caller's graph is
    never touched: the generator tracks the evolving state on a private
    copy.  Weights stay integral for int32 graphs and within
    ``[1, max_weight]`` (default: the graph's current max weight).

    Deterministic given ``seed``; ``name`` only labels error messages.
    """
    # late import: repro.dynamic depends on repro.graphs.csr, so the
    # package-level import here would be cyclic
    from repro.dynamic.updates import EdgeUpdate, UpdateBatch, apply_updates

    if batches < 0 or batch_size < 1:
        raise GraphConstructionError(
            "need batches >= 0 and batch_size >= 1 for an update stream"
        )
    if not 0.0 <= p_insert + p_delete <= 1.0:
        raise GraphConstructionError(
            "p_insert + p_delete must lie in [0, 1]"
        )
    rng = np.random.default_rng(seed)
    mw = int(max_weight) if max_weight is not None else max(2, int(graph.max_weight()))
    # private evolving copy (weight-only batches patch arrays in place)
    state = CSRGraph(
        row_offsets=graph.row_offsets.copy(),
        col_indices=graph.col_indices.copy(),
        weights=graph.weights.copy(),
        name=name or f"{graph.name}-stream",
    )

    def has_edge(g: CSRGraph, u: int, v: int) -> bool:
        lo, hi = int(g.row_offsets[u]), int(g.row_offsets[u + 1])
        return bool(np.any(g.col_indices[lo:hi] == v))

    def edge_at(g: CSRGraph, pos: int):
        u = int(np.searchsorted(g.row_offsets, pos, side="right")) - 1
        return u, int(g.col_indices[pos]), float(g.weights[pos])

    out = []
    for _ in range(batches):
        used = set()
        updates = []
        attempts = 0
        while len(updates) < batch_size and attempts < batch_size * 20:
            attempts += 1
            n, m = state.num_vertices, state.num_edges
            r = float(rng.random())
            if r < p_insert or m == 0:
                u = int(rng.integers(n))
                v = int(rng.integers(n))
                if u == v or (u, v) in used or has_edge(state, u, v):
                    continue
                w = int(rng.integers(1, mw + 1))
                updates.append(EdgeUpdate("insert", u, v, w))
            elif r < p_insert + p_delete:
                u, v, _w = edge_at(state, int(rng.integers(m)))
                if (u, v) in used:
                    continue
                updates.append(EdgeUpdate("delete", u, v))
            else:
                u, v, w = edge_at(state, int(rng.integers(m)))
                if (u, v) in used:
                    continue
                if w > 1 and rng.random() < 0.5:
                    new = int(rng.integers(1, int(w)))  # strict decrease
                    updates.append(EdgeUpdate("decrease", u, v, new))
                else:
                    new = int(w) + int(rng.integers(1, mw + 1))
                    updates.append(EdgeUpdate("increase", u, v, new))
            used.add((updates[-1].src, updates[-1].dst))
        batch = UpdateBatch(updates)
        state = apply_updates(state, batch).graph
        out.append(batch)
    return out
