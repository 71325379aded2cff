"""Online rescheduling policies.

When a crash exceeds the surviving guarantee of the current schedule, the
runtime asks a policy for a replacement schedule on the surviving sub-platform.
Two policies are provided:

* :class:`RLTFReschedulePolicy` (``"rltf"``) — re-runs the R-LTF heuristic on
  the survivors, degrading gracefully: it first tries the original period and
  the highest feasible ε, then lowers ε, then relaxes the period by successive
  backoff factors (a longer period means the stream is shed to a sustainable
  rate rather than dying).  As a last resort it falls back to remapping the
  previous schedule, which never rejects.
* :class:`RemapReschedulePolicy` (``"remap"``) — keeps the surviving part of
  the previous mapping and only re-places the replicas that were hosted by
  dead processors (least-loaded survivor first), then schedules that
  assignment with :func:`repro.core.engine.forced_schedule`, the mapping
  engine run with every replica forced onto its processor.  Much cheaper
  than a full re-run and minimally disruptive, at the price of possibly
  overloading survivors (the forced placement never rejects; the runtime
  then throttles admission to the achievable rate).

Both are deterministic: given the same inputs they return the same schedule.

Policies are resolved *by name* through the :data:`RESCHEDULE_POLICIES`
registry (:class:`~repro.utils.registry.PolicyRegistry`): the CLI derives its
``--policy`` choices from it, :class:`~repro.scenario.spec.RuntimeSpec`
validates against it, and the experiment sweeps iterate it — registering a new
policy class here is all it takes to expose it everywhere.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.core.engine import SchedulerOptions, forced_schedule
from repro.core.rltf import rltf_schedule
from repro.exceptions import SchedulingError
from repro.graph.dag import TaskGraph
from repro.platform.platform import Platform
from repro.schedule.schedule import Schedule
from repro.utils.registry import PolicyRegistry

__all__ = [
    "ReschedulePolicy",
    "RLTFReschedulePolicy",
    "RemapReschedulePolicy",
    "RESCHEDULE_POLICIES",
    "resolve_policy",
]


@runtime_checkable
class ReschedulePolicy(Protocol):
    """Interface of an online rescheduling policy."""

    name: str

    def reschedule(
        self,
        graph: TaskGraph,
        platform: Platform,
        period: float,
        epsilon: int,
        previous: Schedule | None = None,
    ) -> Schedule:
        """Build a schedule of *graph* on the surviving *platform*.

        *period* and *epsilon* are the original targets; the policy may degrade
        either when the survivors cannot sustain them.  *previous* is the
        schedule being replaced (its platform may be larger).  Raises
        :class:`~repro.exceptions.SchedulingError` when no schedule can be
        produced at all.
        """
        ...  # pragma: no cover - protocol


class RemapReschedulePolicy:
    """Keep the surviving mapping, re-place only the replicas of dead processors."""

    name = "remap"

    def reschedule(
        self,
        graph: TaskGraph,
        platform: Platform,
        period: float,
        epsilon: int,
        previous: Schedule | None = None,
    ) -> Schedule:
        if previous is None:
            raise SchedulingError("the remap policy needs a previous schedule to start from")
        m = platform.num_processors
        if m < 1:
            raise SchedulingError("no surviving processor to remap onto")
        eps = min(epsilon, m - 1)
        factor = eps + 1

        load = {p: 0.0 for p in platform.processor_names}
        assignment: dict[str, list[str]] = {}
        # First pass: keep every replica whose processor survived.
        for task in graph.task_names:
            work = graph.work(task)
            keep = [p for p in previous.processors_of_task(task) if p in platform][:factor]
            assignment[task] = keep
            for p in keep:
                load[p] += platform.execution_time(work, p)
        # Second pass: refill the missing replicas, least-loaded survivor first.
        for task in graph.task_names:
            work = graph.work(task)
            hosts = assignment[task]
            while len(hosts) < factor:
                candidates = [p for p in platform.processor_names if p not in hosts]
                best = min(candidates, key=lambda p: (load[p], p))
                hosts.append(best)
                load[best] += platform.execution_time(work, best)
        return forced_schedule(
            graph, platform, period, assignment, "online-remap", SchedulerOptions(epsilon=eps)
        )


class RLTFReschedulePolicy:
    """Re-run R-LTF on the survivors, degrading ε then the period as needed."""

    name = "rltf"

    def __init__(self, period_backoffs: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0)):
        if not period_backoffs or any(f < 1.0 for f in period_backoffs):
            raise ValueError("period_backoffs must be non-empty factors >= 1")
        self.period_backoffs = tuple(period_backoffs)

    def reschedule(
        self,
        graph: TaskGraph,
        platform: Platform,
        period: float,
        epsilon: int,
        previous: Schedule | None = None,
    ) -> Schedule:
        if platform.num_processors < 1:
            raise SchedulingError("no surviving processor to reschedule onto")
        eps_max = min(epsilon, platform.num_processors - 1)
        for factor in self.period_backoffs:
            for eps in range(eps_max, -1, -1):
                try:
                    return rltf_schedule(
                        graph, platform, period=period * factor, epsilon=eps
                    )
                except SchedulingError:
                    continue
        if previous is not None:
            # Overload-tolerant last resort: the stream survives at a degraded
            # rate instead of aborting.
            return RemapReschedulePolicy().reschedule(
                graph, platform, period, epsilon, previous
            )
        raise SchedulingError(
            f"R-LTF found no feasible schedule on {platform.num_processors} survivors "
            f"(period backoffs {self.period_backoffs})"
        )


#: registry of rescheduling policies: name -> zero-argument factory.
RESCHEDULE_POLICIES = PolicyRegistry("rescheduling policy")
RESCHEDULE_POLICIES.register(RLTFReschedulePolicy)
RESCHEDULE_POLICIES.register(RemapReschedulePolicy)


def resolve_policy(policy: str | ReschedulePolicy) -> ReschedulePolicy:
    """Coerce a policy name or instance into a policy instance."""
    return RESCHEDULE_POLICIES.resolve(policy, ReschedulePolicy)
