"""TDA-style baseline (Yang, Kasturi & Sivasubramaniam [11]).

TDA ("Task Duplication Allocation" pipeline scheduler for video processing on
networks of workstations) first assigns tasks to processors with the ETF
heuristic, then partitions the tasks into pipeline stages with a top-down
traversal so that no stage exceeds the period, and finally refines processor
utilisation.  This implementation reuses the ETF mapping of
:mod:`repro.baselines.listsched` and performs the top-down stage partitioning;
the refinement step re-packs underloaded processors.
"""

from __future__ import annotations

from repro.baselines.listsched import etf_schedule
from repro.core.engine import forced_schedule, resolve_period
from repro.graph.dag import TaskGraph
from repro.platform.platform import Platform
from repro.schedule.schedule import Schedule

__all__ = ["tda_schedule"]


def tda_schedule(
    graph: TaskGraph,
    platform: Platform,
    throughput: float | None = None,
    period: float | None = None,
) -> Schedule:
    """TDA-style mapping: ETF assignment + top-down repacking bounded by the period."""
    resolved = resolve_period(throughput, period)
    seed_schedule = etf_schedule(graph, platform, period=resolved)

    # Top-down traversal: keep the ETF processor while it fits in the period,
    # otherwise move the task to the least-loaded processor that still fits
    # (or the globally least-loaded one when none fits).
    proc_load = {p: 0.0 for p in platform.processor_names}
    assignment: dict[str, list[str]] = {}
    for task in graph.topological_order():
        preferred = seed_schedule.processor_of(seed_schedule.replicas(task)[0])
        cost = {p: graph.work(task) / platform.speed(p) for p in platform.processor_names}
        candidates = [p for p in platform.processor_names if proc_load[p] + cost[p] <= resolved]
        if preferred in candidates:
            chosen = preferred
        elif candidates:
            chosen = min(candidates, key=lambda p: (proc_load[p] + cost[p], p))
        else:
            chosen = min(platform.processor_names, key=lambda p: (proc_load[p] + cost[p], p))
        proc_load[chosen] += cost[chosen]
        assignment[task] = [chosen]

    return forced_schedule(graph, platform, resolved, assignment, algorithm="tda")
