"""Binary search for the minimal period (Hoang & Rabaey [5]).

The DSP scheduler of [5] performs a binary search on the period: for a
candidate period, a mapping routine partitions the graph into stages top-down
and reports how many processors it needs; the search keeps the smallest period
whose mapping fits on the available processors.  Here the mapping routine is
the fault-free R-LTF scheduler itself (which fails explicitly when the period
is too small), so the search is the throughput maximisation of
:func:`repro.core.bicriteria.maximize_throughput` at ``ε = 0``, and the result
is directly comparable to the other schedules.
"""

from __future__ import annotations

from repro.core.bicriteria import maximize_throughput
from repro.graph.dag import TaskGraph
from repro.platform.platform import Platform
from repro.schedule.schedule import Schedule

__all__ = ["minimal_period_schedule"]


def minimal_period_schedule(
    graph: TaskGraph,
    platform: Platform,
    tolerance: float = 1e-3,
    max_iterations: int = 60,
) -> Schedule:
    """Schedule at (close to) the smallest feasible period for *graph* on *platform*.

    Returns the fault-free schedule obtained at the smallest period the binary
    search could certify; its ``period`` attribute carries the value.  Raises
    :class:`~repro.exceptions.SchedulingError` when even the most generous
    period is infeasible.
    """
    best = maximize_throughput(
        graph, platform, epsilon=0, tolerance=tolerance, max_iterations=max_iterations
    ).schedule
    best.algorithm = "minimal-period"
    return best
