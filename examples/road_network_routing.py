#!/usr/bin/env python
"""Road-network routing: the paper's high-diameter motivating workload.

Scenario: a navigation service precomputes shortest travel times from a
depot to every intersection of a city-scale road network.  Road graphs
are the worst case for BSP solvers (§4.2: "for the road.USA graph, the
average work count per iteration is only 800, while a RTX 2080 GPU has
68K hardware threads") and the showcase for ADDS's asynchronous
scheduler.

This example
1. builds a road grid plus an irregular geometric road network,
2. compares ADDS with Near-Far and Bellman-Ford,
3. prints the per-iteration starvation that kills BSP on this class,
4. derives an isochrone (reachable-within-budget) map from the result, and
5. serves a burst of routing queries through a :mod:`repro.serve`
   Session — the queue/batcher/cache path a navigation backend would
   run — and checks the served answers against the direct solves above.

Run:  python examples/road_network_routing.py
"""

from __future__ import annotations

import numpy as np

import repro
from repro.serve import Session


def analyze(graph, source=0):
    print(f"== {graph.name}: |V|={graph.num_vertices} |E|={graph.num_edges}")
    adds = repro.sssp(graph, source, algorithm="adds")
    nf = repro.sssp(graph, source, algorithm="nf")
    bf = repro.sssp(graph, source, algorithm="gun-bf")

    print(f"   {'solver':8s} {'time(us)':>10s} {'work':>8s} {'supersteps':>10s}")
    for r in (adds, nf, bf):
        steps = r.stats.get("supersteps", "-")
        print(f"   {r.solver:8s} {r.time_us:10.1f} {r.work_count:8d} {str(steps):>10s}")

    # The §4.2 diagnosis: average work available per BSP iteration.
    per_iter = nf.work_count / max(1, nf.stats["supersteps"])
    device = repro.default_gpu()
    print(f"   NF avg work/iteration: {per_iter:.0f} items "
          f"(device has {device.total_threads} threads) -> "
          f"{'starved' if per_iter * graph.average_degree() < device.total_threads / 4 else 'utilized'}")
    print(f"   ADDS speedup over NF: {nf.time_us / adds.time_us:.2f}x   "
          f"work ratio (ADDS/NF): {adds.work_count / nf.work_count:.2f}x")
    return adds


def isochrones(graph, result, budgets):
    """Reachable-intersection counts within each travel-time budget."""
    finite = result.dist[np.isfinite(result.dist)]
    print("   isochrones (reachable vertices within travel budget):")
    for frac, label in zip(budgets, ("near", "mid", "far")):
        budget = float(np.quantile(finite, frac))
        count = int((result.dist <= budget).sum())
        print(f"     {label}: budget {budget:8.0f} -> {count:6d} vertices "
              f"({100 * count / graph.num_vertices:.0f}%)")


def serve_burst(graph, n_queries=60, seed=11):
    """The same routing workload as a *service*: a burst of queries hits
    a Session, gets coalesced into batches, and repeat sources are
    answered from the distance cache.  Every served distance is
    bit-identical to the direct solves above (same solvers underneath) —
    asserted at the end."""
    rng = np.random.default_rng(seed)
    hot = [int(v) for v in rng.choice(graph.num_vertices, size=6, replace=False)]
    print(f"   serving {n_queries} routing queries "
          f"({len(hot)} popular origins + cold traffic):")
    with Session(solver="dijkstra", max_batch=16, autostart=False) as s:
        s.add_graph(graph.name, graph)
        futures = []
        for _ in range(n_queries):
            if rng.random() < 0.75:
                origin = hot[int(rng.integers(len(hot)))]
            else:
                origin = int(rng.integers(graph.num_vertices))
            dest = int(rng.integers(graph.num_vertices))
            futures.append(s.submit(graph.name, origin, targets=[dest]))
            if len(futures) % 12 == 0:  # queries arrive in bursts
                s.serve_pending()
        s.serve_pending()
        results = [f.result() for f in futures]
        lat_ms = np.sort([r.latency_s for r in results]) * 1e3
        c = s.counters()
        print(f"     latency p50 {np.percentile(lat_ms, 50):.1f} ms, "
              f"p99 {np.percentile(lat_ms, 99):.1f} ms; "
              f"{s.dispatched} solves in "
              f"{len(s.batch_sizes)} batches, "
              f"{c['serve_cache_hits']:.0f} cache hits "
              f"({s.cache.hit_rate:.0%} hit rate)")
    # the service changed the plumbing, not the answers
    check = next(r for r in results if r.source == hot[0])
    direct = repro.sssp(graph, hot[0], algorithm="dijkstra")
    assert np.array_equal(check.dist, direct.dist)
    print("     served distances bit-match the direct solve")


def main() -> None:
    # 1. a Manhattan-style grid city
    grid = repro.grid_road(120, 70, max_weight=8192, seed=3)
    adds = analyze(grid)
    isochrones(grid, adds, (0.25, 0.5, 0.9))
    serve_burst(grid)
    print()

    # 2. an organically grown road network (k-nearest-neighbour geometry,
    #    weights proportional to distance)
    geo = repro.random_geometric(6000, k=5, seed=4)
    adds = analyze(geo)
    isochrones(geo, adds, (0.25, 0.5, 0.9))
    serve_burst(geo)
    print()

    # 3. the parallelism-over-time contrast of Figure 11, in ASCII
    from repro.analysis import ascii_series

    nf = repro.sssp(grid, 0, algorithm="nf")
    print(ascii_series(
        {"adds": adds_timeline_rows(grid), "nf": nf.timeline.to_rows()},
        log_y=True,
        title="parallelism (edges in flight) over time - road grid",
    ))


def adds_timeline_rows(graph):
    return repro.sssp(graph, 0, algorithm="adds").timeline.to_rows()


if __name__ == "__main__":
    main()
