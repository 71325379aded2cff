"""Pre-clustering baseline (Hary & Özgüner [4]).

The algorithm of [4] satisfies a prescribed throughput by minimising
inter-processor communication: edges are sorted by decreasing data volume and
processed greedily, merging the clusters of their endpoints whenever the
combined computation still fits within the period; remaining tasks are
assigned to clusters on a first-fit basis; clusters are finally mapped to
processors.  The two refinement phases of the original paper are approximated
by a final least-loaded cluster-to-processor mapping.
"""

from __future__ import annotations

from repro.core.engine import forced_schedule, resolve_period
from repro.graph.dag import TaskGraph
from repro.platform.platform import Platform
from repro.schedule.schedule import Schedule

__all__ = ["preclustering_schedule", "cluster_by_edges"]


class _UnionFind:
    def __init__(self, items):
        self.parent = {i: i for i in items}

    def find(self, item):
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a, b):
        self.parent[self.find(a)] = self.find(b)


def cluster_by_edges(graph: TaskGraph, platform: Platform, period: float) -> list[list[str]]:
    """Greedy edge-zeroing clustering bounded by the per-cluster compute load.

    Edges are visited by decreasing volume; the two end clusters are merged
    when the merged average execution time stays below the period.
    """
    uf = _UnionFind(graph.task_names)
    load = {t: graph.work(t) * platform.mean_inverse_speed for t in graph.task_names}
    cluster_load = dict(load)

    edges = sorted(graph.edges(), key=lambda e: (-e[2], e[0], e[1]))
    for src, dst, _vol in edges:
        a, b = uf.find(src), uf.find(dst)
        if a == b:
            continue
        if cluster_load[a] + cluster_load[b] <= period:
            uf.union(a, b)
            root = uf.find(a)
            cluster_load[root] = cluster_load[a] + cluster_load[b]

    groups: dict[str, list[str]] = {}
    for task in graph.task_names:
        groups.setdefault(uf.find(task), []).append(task)
    return list(groups.values())


def preclustering_schedule(
    graph: TaskGraph,
    platform: Platform,
    throughput: float | None = None,
    period: float | None = None,
) -> Schedule:
    """Pre-clustering mapping in the spirit of Hary & Özgüner [4] (ε = 0)."""
    resolved = resolve_period(throughput, period)
    clusters = cluster_by_edges(graph, platform, resolved)
    # Map clusters to processors: biggest cluster first, least-loaded (fastest) processor.
    proc_load = {p: 0.0 for p in platform.processor_names}
    assignment: dict[str, list[str]] = {}
    for cluster in sorted(clusters, key=lambda c: -sum(graph.work(t) for t in c)):
        proc = min(
            platform.processor_names,
            key=lambda p: (proc_load[p] + sum(graph.work(t) for t in cluster) / platform.speed(p), p),
        )
        for task in cluster:
            assignment[task] = [proc]
        proc_load[proc] += sum(graph.work(t) for t in cluster) / platform.speed(proc)
    return forced_schedule(graph, platform, resolved, assignment, algorithm="preclustering")
