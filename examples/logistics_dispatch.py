#!/usr/bin/env python
"""Logistics dispatch: multi-source SSSP and path reconstruction.

Scenario: a delivery company has several depots on a road network and
needs, for every address, (a) the travel time from its *nearest* depot
and (b) the actual route.  One multi-source ADDS run answers both — the
distance field is the lower envelope over depots and the shortest-path
tree roots every vertex at its nearest depot.

The second half runs the same operation as a *dispatch desk*: a
:mod:`repro.serve` Session holds the city graph, dispatchers fire
per-depot ETA queries all day, and the distance cache means each depot
is solved once no matter how many queries ask about it.  The envelope
over the served per-depot fields must equal the one multi-source run —
checked at the end.

Run:  python examples/logistics_dispatch.py
"""

from __future__ import annotations

import numpy as np

import repro
from repro.serve import Session


def main() -> None:
    city = repro.grid_road(90, 60, max_weight=4096, seed=21)
    n = city.num_vertices
    rng = np.random.default_rng(7)
    depots = sorted(int(v) for v in rng.choice(n, size=4, replace=False))
    print(f"road network: {n} intersections, {city.num_edges} road segments")
    print(f"depots at vertices {depots}")
    print()

    # one multi-source run instead of four single-source runs
    fleet = repro.sssp(city, depots[0], sources=depots)
    singles = [repro.sssp(city, d) for d in depots]
    envelope = np.minimum.reduce([r.dist for r in singles])
    assert np.allclose(fleet.dist, envelope)
    total_single_work = sum(r.work_count for r in singles)
    print(f"multi-source run: work {fleet.work_count} "
          f"(vs {total_single_work} for 4 separate runs, "
          f"{total_single_work / fleet.work_count:.1f}x saved), "
          f"time {fleet.time_us:.0f}us")
    print()

    # service-area sizes: which depot serves how many addresses
    # (walk each address's path back to its root depot)
    owners = np.full(n, -1)
    pred = fleet.predecessors
    for d in depots:
        owners[d] = d
    order = np.argsort(fleet.dist)  # roots settle before their subtrees
    for v in order:
        if owners[v] < 0 and pred[v] >= 0:
            owners[v] = owners[pred[v]]
    print("service areas (addresses per depot):")
    for d in depots:
        count = int((owners == d).sum())
        print(f"  depot {d:5d}: {count:5d} addresses "
              f"({100 * count / n:.0f}%)")
    print()

    # a concrete dispatch: route to the hardest-to-reach address
    far = int(np.argmax(np.where(np.isfinite(fleet.dist), fleet.dist, -1)))
    route = fleet.path_to(far)
    print(f"worst-case address: vertex {far}, travel cost {fleet.dist[far]:.0f}")
    print(f"dispatched from depot {route[0]} via {len(route)} intersections:")
    head = " -> ".join(map(str, route[:6]))
    tail = " -> ".join(map(str, route[-3:]))
    print(f"  {head} -> ... -> {tail}")

    # sanity: the route's cost equals the reported distance
    cost = 0.0
    for u, v in zip(route, route[1:]):
        dsts, ws = city.neighbors(u)
        cost += float(ws[np.flatnonzero(dsts == v)].min())
    assert cost == float(fleet.dist[far])
    print("route cost verified against the distance field")
    print()

    dispatch_desk(city, depots, fleet)


def dispatch_desk(city, depots, fleet, n_queries=80, seed=5):
    """A day at the dispatch desk, served through a Session.

    Each query is "ETA from depot D to these addresses" — single-source
    with explicit targets.  Only ``len(depots)`` distinct sources exist,
    so after one solve per depot every later query is a cache hit; the
    batcher coalesces whatever arrives together.  The per-depot fields
    the service hands out recompose into exactly the multi-source
    envelope computed above.
    """
    rng = np.random.default_rng(seed)
    n = city.num_vertices
    print(f"dispatch desk: {n_queries} ETA queries over {len(depots)} depots")
    with Session(solver="dijkstra", autostart=False) as s:
        s.add_graph("city", city)
        futures = []
        for i in range(n_queries):
            depot = depots[int(rng.integers(len(depots)))]
            addresses = rng.integers(0, n, size=int(rng.integers(1, 5)))
            futures.append(s.submit("city", depot, targets=addresses))
            if len(futures) % 10 == 0:  # queries arrive in bursts of 10
                s.serve_pending()
        s.serve_pending()
        results = [f.result() for f in futures]
        lat_ms = np.sort([r.latency_s for r in results]) * 1e3
        c = s.counters()
        print(f"  latency p50 {np.percentile(lat_ms, 50):.1f} ms, "
              f"p99 {np.percentile(lat_ms, 99):.1f} ms; "
              f"{s.dispatched} solves for "
              f"{c['serve_admitted']:.0f} queries "
              f"({c['serve_cache_hits']:.0f} cache hits, "
              f"{s.cache.hit_rate:.0%} hit rate)")
        # the served per-depot fields recompose the fleet envelope
        per_depot = {r.source: r.dist for r in results}
        envelope = np.minimum.reduce([per_depot[d] for d in depots])
        assert np.allclose(fleet.dist, envelope)
        print("  served per-depot fields recompose the multi-source envelope")


if __name__ == "__main__":
    main()
