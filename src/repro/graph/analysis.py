"""DAG analysis: levels, priorities, width, granularity, critical path.

The paper ranks tasks by ``tl(t) + bl(t)`` where ``tl`` (top level) is the
length of the longest path from an entry node to ``t`` *excluding* ``E(t)``,
and ``bl`` (bottom level) is the length of the longest path from ``t`` to an
exit node *including* ``E(t)``.  Path lengths are defined as the *average* sum
of node and edge weights ([9]): on a heterogeneous platform, the weight of a
task is its average execution time over the processors, and the weight of an
edge is its average communication time over the distinct processor pairs.

All functions below accept an optional :class:`~repro.platform.platform.Platform`;
when it is omitted, raw works and volumes are used as weights (homogeneous
unit-speed, unit-bandwidth platform).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from repro.exceptions import GraphError
from repro.graph.dag import TaskGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.platform.platform import Platform

__all__ = [
    "average_execution_time",
    "average_communication_time",
    "bottom_levels",
    "top_levels",
    "task_priorities",
    "graph_width",
    "level_width",
    "granularity",
    "critical_path",
    "critical_path_length",
    "summarize",
]


# --------------------------------------------------------------------- weights
def average_execution_time(graph: TaskGraph, task: str, platform: "Platform | None" = None) -> float:
    """Average execution time of *task* over the processors of *platform*.

    Without a platform this is simply the task work (unit speed).
    """
    work = graph.work(task)
    if platform is None:
        return work
    return work * platform.mean_inverse_speed


def average_communication_time(
    graph: TaskGraph, src: str, dst: str, platform: "Platform | None" = None
) -> float:
    """Average communication time of edge ``src → dst`` over distinct processor pairs.

    Without a platform this is simply the edge volume (unit bandwidth).
    """
    vol = graph.volume(src, dst)
    if platform is None:
        return vol
    return vol * platform.mean_inverse_bandwidth


# ---------------------------------------------------------------------- levels
def bottom_levels(graph: TaskGraph, platform: "Platform | None" = None) -> dict[str, float]:
    """Bottom level ``bl(t)`` of every task.

    ``bl`` of an exit node is its (average) execution time; otherwise
    ``bl(t) = w(t) + max over successors t' of (c(t, t') + bl(t'))``.
    """
    bl: dict[str, float] = {}
    for name in graph.reverse_topological_order():
        w = average_execution_time(graph, name, platform)
        succs = graph.successors(name)
        if not succs:
            bl[name] = w
        else:
            bl[name] = w + max(
                average_communication_time(graph, name, s, platform) + bl[s] for s in succs
            )
    return bl


def top_levels(graph: TaskGraph, platform: "Platform | None" = None) -> dict[str, float]:
    """Top level ``tl(t)`` of every task (0 for entry nodes, excludes ``E(t)``)."""
    tl: dict[str, float] = {}
    for name in graph.topological_order():
        preds = graph.predecessors(name)
        if not preds:
            tl[name] = 0.0
        else:
            tl[name] = max(
                tl[p]
                + average_execution_time(graph, p, platform)
                + average_communication_time(graph, p, name, platform)
                for p in preds
            )
    return tl


def task_priorities(graph: TaskGraph, platform: "Platform | None" = None) -> dict[str, float]:
    """Task priorities ``tl(t) + bl(t)`` used by the head function ``H(ℓ)``.

    A higher value means a more critical task; the maximum value equals the
    (average) critical-path length, attained exactly by critical-path tasks.
    """
    tl = top_levels(graph, platform)
    bl = bottom_levels(graph, platform)
    return {name: tl[name] + bl[name] for name in graph.task_names}


# ----------------------------------------------------------------------- width
def graph_width(graph: TaskGraph, exact: bool = True) -> int:
    """Width ``ω`` of the DAG: the maximum number of pairwise-independent tasks.

    The exact value is computed via Dilworth's theorem (maximum antichain =
    size of a minimum chain cover), using a maximum bipartite matching on the
    transitive closure; set ``exact=False`` for the cheaper per-level
    upper-bound-free approximation :func:`level_width` on large graphs.
    """
    graph.validate()
    if not exact:
        return level_width(graph)
    order = graph.topological_order()
    index = {name: i for i, name in enumerate(order)}
    # reach[i]: bitset of the tasks reachable from task i (transitive closure)
    reach = [0] * len(order)
    for i in range(len(order) - 1, -1, -1):
        for succ in graph.successors(order[i]):
            j = index[succ]
            reach[i] |= reach[j] | (1 << j)
    # Kuhn's augmenting paths on the bipartite graph left i -> right j for
    # every j in reach[i]; each path is searched depth-first with a stack.
    match_right = [-1] * len(order)
    match_left = [-1] * len(order)
    matched = 0
    for root in range(len(order)):
        seen, via, stack, free = 0, {}, [root], -1
        while stack and free < 0:
            i = stack[-1]
            todo = reach[i] & ~seen
            if not todo:
                stack.pop()
                continue
            j = (todo & -todo).bit_length() - 1
            seen |= 1 << j
            via[j] = i
            if match_right[j] < 0:
                free = j
            else:
                stack.append(match_right[j])
        j = free
        while j >= 0:  # flip the path: every left task on it takes a new right task
            i = via[j]
            match_right[j], match_left[i], j = i, j, match_left[i]
        matched += free >= 0
    return graph.num_tasks - matched


def level_width(graph: TaskGraph) -> int:
    """Maximum number of tasks sharing the same depth (a lower bound on ``ω``)."""
    depth: dict[str, int] = {}
    for name in graph.topological_order():
        preds = graph.predecessors(name)
        depth[name] = 0 if not preds else 1 + max(depth[p] for p in preds)
    counts: dict[int, int] = {}
    for d in depth.values():
        counts[d] = counts.get(d, 0) + 1
    return max(counts.values())


# ----------------------------------------------------------------- granularity
def granularity(graph: TaskGraph, platform: "Platform | None" = None) -> float:
    """Granularity ``g(G, P)``: ratio of the sum of the *slowest* computation
    times to the sum of the *slowest* communication times (Section 2).

    Larger values mean computation-dominated graphs.  Graphs without edges have
    infinite granularity, reported as ``float('inf')``.
    """
    if platform is None:
        slowest_comp = graph.total_work
        slowest_comm = graph.total_volume
    else:
        slowest_comp = sum(t.work / platform.min_speed for t in graph.tasks)
        slowest_comm = sum(vol / platform.min_bandwidth for _, _, vol in graph.edges())
    if slowest_comm == 0:
        return float("inf")
    return slowest_comp / slowest_comm


# -------------------------------------------------------------- critical paths
def critical_path(graph: TaskGraph, platform: "Platform | None" = None) -> list[str]:
    """A longest (average-weight) entry→exit path of the graph."""
    graph.validate()
    bl = bottom_levels(graph, platform)
    entries = graph.entry_tasks()
    if not entries:
        raise GraphError(f"graph {graph.name!r} has no entry task")
    current = max(entries, key=lambda n: (bl[n], n))
    path = [current]
    while graph.successors(current):
        current = max(
            graph.successors(current),
            key=lambda s: (
                average_communication_time(graph, path[-1], s, platform) + bl[s],
                s,
            ),
        )
        path.append(current)
    return path


def critical_path_length(graph: TaskGraph, platform: "Platform | None" = None) -> float:
    """Length of the critical path (equals ``max tl + bl`` over all tasks)."""
    prio = task_priorities(graph, platform)
    return max(prio.values())


# -------------------------------------------------------------------- summary
def summarize(graph: TaskGraph, platform: "Platform | None" = None) -> Mapping[str, float]:
    """A small dictionary of structural statistics, used by reports and examples."""
    graph.validate()
    return {
        "tasks": graph.num_tasks,
        "edges": graph.num_edges,
        "entries": len(graph.entry_tasks()),
        "exits": len(graph.exit_tasks()),
        "total_work": graph.total_work,
        "total_volume": graph.total_volume,
        "granularity": granularity(graph, platform),
        "critical_path_length": critical_path_length(graph, platform),
        "width": graph_width(graph, exact=graph.num_tasks <= 200),
    }
