"""Bi-criteria wrappers — the "symmetric" problems of the paper's conclusion.

The conclusion of the paper suggests extending the approach to the symmetric
optimisation problems:

* *maximise the throughput* for a given latency bound and failure number;
* *maximise the number of supported failures* for a given latency and
  throughput.

Both are implemented here as search wrappers around R-LTF (or LTF): a binary
search over the period for the former (plus a geometric scan when a latency
bound rules the optimum out), a linear scan over ``ε`` for the latter.  The
``dsp_filterbank`` example exercises both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.ltf import ltf_schedule
from repro.core.rltf import rltf_schedule
from repro.exceptions import SchedulingError
from repro.graph.dag import TaskGraph
from repro.platform.platform import Platform
from repro.schedule.metrics import latency_upper_bound
from repro.schedule.schedule import Schedule
from repro.utils.checks import check_positive

__all__ = ["BicriteriaResult", "maximize_throughput", "maximize_resilience"]

_SCHEDULERS: dict[str, Callable[..., Schedule]] = {
    "r-ltf": rltf_schedule,
    "ltf": ltf_schedule,
}


@dataclass(frozen=True)
class BicriteriaResult:
    """Outcome of a bi-criteria search."""

    schedule: Schedule
    period: float
    epsilon: int
    latency: float

    @property
    def throughput(self) -> float:
        """Throughput ``1/Δ`` of the returned schedule."""
        return 1.0 / self.period


def _scheduler(name: str) -> Callable[..., Schedule]:
    try:
        return _SCHEDULERS[name]
    except KeyError:
        raise ValueError(f"unknown scheduler {name!r}; pick one of {sorted(_SCHEDULERS)}") from None


def _try(
    scheduler: Callable[..., Schedule],
    graph: TaskGraph,
    platform: Platform,
    period: float,
    epsilon: int,
    latency_bound: float | None,
) -> Schedule | None:
    """One feasibility probe: schedule, check the optional latency bound."""
    try:
        schedule = scheduler(graph, platform, period=period, epsilon=epsilon)
    except SchedulingError:
        return None
    if latency_bound is not None and latency_upper_bound(schedule) > latency_bound + 1e-9:
        return None
    return schedule


#: periods probed between the unconstrained optimum and the latency bound
#: when the optimum breaks the bound (see :func:`maximize_throughput`).
_LATENCY_SCAN_POINTS = 32


def _bisect(
    probe: Callable[[float], Schedule | None],
    low: float,
    high: float,
    best: Schedule,
    tolerance: float,
    max_iterations: int,
) -> tuple[Schedule, float]:
    """Shrink the feasible period *high* (whose schedule is *best*) towards
    the infeasible *low*; returns the best schedule found and its period."""
    for _ in range(max_iterations):
        if high - low <= tolerance * max(1.0, low):
            break
        mid = 0.5 * (low + high)
        schedule = probe(mid)
        if schedule is None:
            low = mid
        else:
            best, high = schedule, mid
    return best, high


def maximize_throughput(
    graph: TaskGraph,
    platform: Platform,
    epsilon: int = 0,
    latency_bound: float | None = None,
    scheduler: str = "r-ltf",
    tolerance: float = 1e-3,
    max_iterations: int = 60,
) -> BicriteriaResult:
    """Largest throughput achievable for a given ``ε`` (and optional latency bound).

    A binary search over the period ``Δ`` repeatedly probes the scheduler for
    the unconstrained optimum ``Δ*``; the lower bound is the largest
    single-task execution time on the fastest processor (no schedule can beat
    it), the upper bound is the total replicated work on the slowest
    processor (always feasible on one processor per replica level,
    throughput-wise).

    Under a latency bound, feasibility is not monotone in ``Δ``: the latency
    ``(2S−1)·Δ`` grows with the period as the stage count ``S`` shrinks.  So
    ``Δ*`` is returned when it meets the bound; otherwise
    ``_LATENCY_SCAN_POINTS`` periods are scanned geometrically over
    ``(Δ*, min(upper bound, latency bound)]`` (the latency is at least
    ``Δ``, so no larger period can help), and the first that meets the bound
    is refined by bisection against the scan point below it.

    Raises
    ------
    SchedulingError
        If even the most generous period admits no feasible schedule, or no
        scanned period meets the latency bound.
    """
    check_positive(tolerance, "tolerance")
    sched_fn = _scheduler(scheduler)

    def probe(period: float, bound: float | None = None) -> Schedule | None:
        return _try(sched_fn, graph, platform, period, epsilon, bound)

    low = max(t.work for t in graph.tasks) / platform.max_speed
    high = (epsilon + 1) * graph.total_work / platform.min_speed + graph.total_volume / platform.min_bandwidth
    best = probe(high)
    if best is None:
        raise SchedulingError(
            "no feasible schedule even with the most generous period; "
            "check the platform size"
        )
    best, best_period = _bisect(probe, low, high, best, tolerance, max_iterations)
    if latency_bound is not None and latency_upper_bound(best) > latency_bound + 1e-9:
        top = min(high, latency_bound)
        scan = (
            [best_period * (top / best_period) ** (k / _LATENCY_SCAN_POINTS)
             for k in range(1, _LATENCY_SCAN_POINTS + 1)]
            if top > best_period else []
        )
        below, found = best_period, None
        for period in scan:
            found = probe(period, latency_bound)
            if found is not None:
                break
            below = period
        if found is None:
            raise SchedulingError(
                f"no period up to {top:g} meets the latency bound "
                f"{latency_bound:g} at epsilon={epsilon}"
            )
        best, best_period = _bisect(
            lambda p: probe(p, latency_bound), below, period, found,
            tolerance, max_iterations,
        )
    return BicriteriaResult(
        schedule=best,
        period=best_period,
        epsilon=epsilon,
        latency=latency_upper_bound(best),
    )


def maximize_resilience(
    graph: TaskGraph,
    platform: Platform,
    throughput: float | None = None,
    period: float | None = None,
    latency_bound: float | None = None,
    scheduler: str = "r-ltf",
) -> BicriteriaResult:
    """Largest ``ε`` schedulable under the given throughput (and latency bound).

    ``ε`` is scanned upward from 0 until the scheduler fails; the last
    successful schedule is returned.

    Raises
    ------
    SchedulingError
        If even ``ε = 0`` is infeasible.
    """
    if (throughput is None) == (period is None):
        raise ValueError("provide exactly one of 'throughput' and 'period'")
    resolved = 1.0 / throughput if throughput is not None else float(period)
    sched_fn = _scheduler(scheduler)
    best: Schedule | None = None
    best_eps = -1
    for eps in range(platform.num_processors):
        probe = _try(sched_fn, graph, platform, resolved, eps, latency_bound)
        if probe is None:
            break
        best, best_eps = probe, eps
    if best is None:
        raise SchedulingError(
            f"no feasible schedule at all for period {resolved:g}, even without replication"
        )
    return BicriteriaResult(
        schedule=best,
        period=resolved,
        epsilon=best_eps,
        latency=latency_upper_bound(best),
    )
