"""The LTF (Latency, Throughput, Failures) heuristic — Algorithm 4.1.

LTF is a top-down, iso-level list-scheduling heuristic extended from
Iso-Level CAFT.  At every step it selects a chunk ``β`` of the highest-priority
ready tasks and places the ``ε+1`` replicas of each of them, level by level:

* while enough independent predecessor replicas are available
  (``Z_k < θ_k``), the **one-to-one mapping** procedure (Algorithm 4.2) is
  used: the replica receives data from exactly one replica of each
  predecessor, which keeps the number of communications close to ``e(ε+1)``
  instead of ``e(ε+1)²``;
* otherwise a **regular mapping** is used: the replica receives data from
  every replica of each predecessor, and among the processors satisfying the
  throughput condition (1), the one giving the earliest finish time is chosen.

LTF *fails* — raising :class:`~repro.exceptions.ThroughputInfeasibleError` —
when no processor can host a replica without exceeding the iteration period,
exactly as in the paper (Section 4.3 shows an instance where LTF needs 10
processors while R-LTF fits in 8).
"""

from __future__ import annotations

from typing import Mapping

from repro.core.engine import MappingEngine, SchedulerOptions, TaskContext, resolve_period
from repro.graph.dag import TaskGraph
from repro.platform.platform import Platform
from repro.schedule.schedule import PlacementPlan, Schedule

__all__ = ["LTFPolicy", "ltf_schedule"]


class LTFPolicy:
    """Processor-selection policy of LTF (minimum finish time).

    Algorithm 4.1 chain-feeds while ``Z_k < θ_k``, ``θ_k`` counting the
    independent chain heads of the scarcest predecessor.  Here the kill-set
    bookkeeping of the engine decides independence, every predecessor has its
    ``ε+1`` replicas placed first, so ``θ_k = ε+1`` and the one-to-one
    procedure is attempted for every replica, falling back to a regular
    (fully fed) mapping when no independent chain exists.
    """

    def choose(self, engine: MappingEngine, task: str, ctx: TaskContext) -> PlacementPlan | None:
        if engine.graph.predecessors(task) and engine.options.enable_one_to_one:
            plan = engine.plan_chain(task, ctx)
            if plan is not None:
                return plan
        return engine.plan_regular_best(task, ctx)


def ltf_schedule(
    graph: TaskGraph,
    platform: Platform,
    throughput: float | None = None,
    period: float | None = None,
    epsilon: int = 0,
    chunk_size: int | None = None,
    enable_one_to_one: bool = True,
    strict_throughput: bool = True,
    strict_resilience: bool = False,
    priorities: Mapping[str, float] | None = None,
) -> Schedule:
    """Schedule *graph* on *platform* with the LTF heuristic.

    Parameters
    ----------
    graph, platform:
        The application DAG and the target heterogeneous platform.
    throughput, period:
        The desired throughput ``T`` or, equivalently, the iteration period
        ``Δ = 1/T`` (provide exactly one of the two).
    epsilon:
        Number of processor failures to tolerate; each task gets ``ε+1``
        replicas placed on distinct processors.
    chunk_size:
        Size ``B`` of the iso-level chunk (defaults to the number of
        processors, as in the paper).
    enable_one_to_one:
        Disable to force full replication of communications (ablation knob).
    strict_throughput:
        When True (default), raise
        :class:`~repro.exceptions.ThroughputInfeasibleError` if some replica
        cannot be placed within the period; when False, place it on the least
        loaded processor and record the violation in ``schedule.stats``.
    strict_resilience:
        When True, track chain supports transitively so that any ``ε``
        failures provably leave a valid replica of every task; when False
        (default) use the paper's local singleton/locked mechanism (see
        :class:`~repro.core.engine.SchedulerOptions`).
    priorities:
        Optional priority override (defaults to ``tl + bl``).

    Returns
    -------
    Schedule
        A complete replicated schedule meeting the throughput constraint.
    """
    resolved = resolve_period(throughput, period)
    options = SchedulerOptions(
        epsilon=epsilon,
        chunk_size=chunk_size,
        enable_one_to_one=enable_one_to_one,
        strict_throughput=strict_throughput,
        strict_resilience=strict_resilience,
    )
    engine = MappingEngine(graph, platform, resolved, options, algorithm="ltf", priorities=priorities)
    return engine.run(LTFPolicy())
