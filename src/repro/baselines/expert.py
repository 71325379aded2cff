"""EXPERT-style baseline (Guirado et al. [3]).

EXPERT enumerates the paths of the application graph by decreasing execution
time and greedily groups consecutive sub-path tasks whose combined execution
fits within one period into *stages*; clusters are then built inside and
across stages to balance the load.  This implementation follows the same
structure: longest paths first, greedy packing of consecutive tasks into
period-bounded groups, then a least-loaded mapping of groups to processors.
"""

from __future__ import annotations

from repro.core.engine import forced_schedule, resolve_period
from repro.graph.analysis import bottom_levels, top_levels
from repro.graph.dag import TaskGraph
from repro.platform.platform import Platform
from repro.schedule.schedule import Schedule

__all__ = ["expert_schedule", "path_decomposition"]


def path_decomposition(graph: TaskGraph, platform: Platform) -> list[list[str]]:
    """Decompose the DAG into vertex-disjoint paths, longest (in time) first.

    Every iteration extracts the current critical path among the not-yet-used
    tasks, which mirrors EXPERT's "paths sorted by execution time" processing
    order while keeping the decomposition disjoint.
    """
    remaining = set(graph.task_names)
    bl = bottom_levels(graph, platform)
    tl = top_levels(graph, platform)
    paths: list[list[str]] = []
    while remaining:
        start = max(remaining, key=lambda t: (tl[t] + bl[t], t))
        path = [start]
        current = start
        while True:
            nxt = [s for s in graph.successors(current) if s in remaining and s not in path]
            if not nxt:
                break
            current = max(nxt, key=lambda t: (bl[t], t))
            path.append(current)
        current = start
        while True:
            prv = [p for p in graph.predecessors(current) if p in remaining and p not in path]
            if not prv:
                break
            current = max(prv, key=lambda t: (tl[t] + graph.work(t), t))
            path.insert(0, current)
        for task in path:
            remaining.discard(task)
        paths.append(path)
    return paths


def expert_schedule(
    graph: TaskGraph,
    platform: Platform,
    throughput: float | None = None,
    period: float | None = None,
) -> Schedule:
    """EXPERT-style stage grouping and mapping (ε = 0)."""
    resolved = resolve_period(throughput, period)
    paths = path_decomposition(graph, platform)

    groups: list[list[str]] = []
    for path in paths:
        current: list[str] = []
        current_load = 0.0
        for task in path:
            cost = graph.work(task) * platform.mean_inverse_speed
            if current and current_load + cost > resolved:
                groups.append(current)
                current, current_load = [], 0.0
            current.append(task)
            current_load += cost
        if current:
            groups.append(current)

    proc_load = {p: 0.0 for p in platform.processor_names}
    assignment: dict[str, list[str]] = {}
    for group in sorted(groups, key=lambda g: -sum(graph.work(t) for t in g)):
        work = sum(graph.work(t) for t in group)
        proc = min(platform.processor_names, key=lambda p: (proc_load[p] + work / platform.speed(p), p))
        proc_load[proc] += work / platform.speed(proc)
        for task in group:
            assignment[task] = [proc]
    return forced_schedule(graph, platform, resolved, assignment, algorithm="expert")
