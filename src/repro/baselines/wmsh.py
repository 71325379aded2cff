"""WMSH-style baseline (Vydyanathan et al. [10]).

WMSH proceeds in three phases: (1) clustering assuming unlimited processors so
that the throughput requirement is met, (2) merging clusters down to the
available processors, and (3) a latency refinement that reduces the
communication along the critical path.  This implementation mirrors those
phases with the substrate of this library:

1. edge-zeroing clustering bounded by the period (same engine as the
   pre-clustering baseline, but starting from one cluster per task and always
   zeroing the heaviest remaining edge first);
2. iterative merging of the two lightest clusters while more clusters than
   processors remain (and the merge fits in the period where possible);
3. critical-path refinement: tasks on the current critical path are pulled
   into the cluster of their heaviest-communicating neighbour when the period
   allows it.
"""

from __future__ import annotations

from repro.baselines.clustering import cluster_by_edges
from repro.core.engine import forced_schedule, resolve_period
from repro.graph.analysis import critical_path
from repro.graph.dag import TaskGraph
from repro.platform.platform import Platform
from repro.schedule.schedule import Schedule

__all__ = ["wmsh_schedule"]


def wmsh_schedule(
    graph: TaskGraph,
    platform: Platform,
    throughput: float | None = None,
    period: float | None = None,
) -> Schedule:
    """WMSH-style three-phase mapping (ε = 0)."""
    resolved = resolve_period(throughput, period)
    mean_inv_speed = platform.mean_inverse_speed

    # Phase 1: throughput-bounded clustering on an unbounded platform.
    clusters = [list(c) for c in cluster_by_edges(graph, platform, resolved)]

    def load(cluster: list[str]) -> float:
        return sum(graph.work(t) for t in cluster) * mean_inv_speed

    # Phase 2: merge down to the number of physical processors.
    m = platform.num_processors
    clusters.sort(key=load)
    while len(clusters) > m:
        a = clusters.pop(0)
        b = clusters.pop(0)
        clusters.append(a + b)
        clusters.sort(key=load)

    # Phase 3: latency refinement along the critical path.
    owner = {t: i for i, c in enumerate(clusters) for t in c}
    for task in critical_path(graph, platform):
        neighbours = list(graph.predecessors(task)) + list(graph.successors(task))
        if not neighbours:
            continue
        heaviest = max(
            neighbours,
            key=lambda n: graph.volume(task, n) if graph.has_edge(task, n) else graph.volume(n, task),
        )
        src, dst = owner[task], owner[heaviest]
        if src == dst:
            continue
        if load(clusters[dst]) + graph.work(task) * mean_inv_speed <= resolved:
            clusters[src].remove(task)
            clusters[dst].append(task)
            owner[task] = dst
    clusters = [c for c in clusters if c]

    # Map clusters to processors: heaviest cluster on the fastest free processor.
    procs_by_speed = sorted(platform.processor_names, key=lambda p: (-platform.speed(p), p))
    assignment: dict[str, list[str]] = {}
    proc_load = {p: 0.0 for p in platform.processor_names}
    for cluster in sorted(clusters, key=lambda c: -load(c)):
        proc = min(
            procs_by_speed,
            key=lambda p: (proc_load[p] + sum(graph.work(t) for t in cluster) / platform.speed(p), p),
        )
        proc_load[proc] += sum(graph.work(t) for t in cluster) / platform.speed(proc)
        for task in cluster:
            assignment[task] = [proc]

    return forced_schedule(graph, platform, resolved, assignment, algorithm="wmsh")
