"""The Reverse LTF (R-LTF) heuristic — Section 4.2.

R-LTF refines LTF by attacking the dominant term of the pipelined latency
``L = (2S − 1)·Δ``: the number of pipeline stages ``S``.  It traverses the
application graph **bottom-up** (sink tasks first) and applies two rules, in
order, when placing the replicas of the current task ``t``:

* **Rule 1** — *stage preservation*: place ``t`` so that the pipeline-stage
  number of its already-scheduled successors does not increase, i.e.
  co-locate each replica with a successor replica whenever the throughput
  condition allows it;
* **Rule 2** — *structural one-to-one*: when ``t`` has a single successor
  ``t'`` and every predecessor of ``t'`` also has a single successor (a pure
  join), assign all replicas of ``t`` with the one-to-one mapping procedure,
  which keeps the replication communications at one per source replica.

When Rule 1 does not apply, the replica falls back to the LTF selection
(one-to-one while independent sources remain, otherwise the
throughput-feasible processor with minimum finish time).  That fallback
subsumes Rule 2's trigger: every task keeps ε+1 replicas (θ_k = ε+1), so
one-to-one is tried for every replica of every task with a successor, join
or not, and a structural test would only repeat the same attempt.

Implementation
--------------
Both passes run the shared :class:`~repro.core.engine.MappingEngine`.  The
bottom-up traversal maps the **reversed** graph under :class:`RLTFPolicy`,
which yields a processor per replica.  The forward pass then places the
original graph in topological order with every replica forced onto that
processor (:func:`~repro.core.engine.forced_schedule`): the same one-to-one
procedure, kill-set bookkeeping and condition (1) as LTF derive the forward
sources, the one-port timing, the stages and the loads.  Reversing the graph
leaves both the stage count and the steady-state loads essentially unchanged
(a processor change along a path costs one stage in either orientation, and
reversing swaps the in/out communication loads), so the forward schedule
retains the properties targeted by the two rules.  A forward replica that
meets condition (1) neither chain-fed nor fully fed on its processor is still
placed and counted in ``stats["relaxed_placements"]``; the reported metrics
are always measured on the forward schedule.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Mapping

from repro.core.engine import (
    MappingEngine,
    SchedulerOptions,
    TaskContext,
    forced_schedule,
    resolve_period,
)
from repro.graph.dag import TaskGraph
from repro.platform.platform import Platform
from repro.schedule.schedule import PlacementPlan, Schedule

__all__ = ["RLTFPolicy", "rltf_schedule"]


class RLTFPolicy:
    """Processor-selection policy of R-LTF on the reversed graph.

    The engine hands this policy the *reversed* graph, so "predecessors" below
    are the original successors of the task, and the incremental stages kept
    by the engine are reverse stages (counted from the sinks); both views give
    the same total stage count.
    """

    def __init__(self, enable_rule1: bool = True):
        self.enable_rule1 = enable_rule1

    # ------------------------------------------------------------------ rules
    def _successor_stage_floor(self, engine: MappingEngine, task: str) -> int:
        """Highest stage already assigned to a successor replica (0 for sinks)."""
        floor = 0
        for succ in engine.graph.predecessors(task):  # reversed graph: original successors
            for replica in engine.schedule.replicas(succ):
                floor = max(floor, engine.stage[replica])
        return floor

    def _rule1_plan(
        self, engine: MappingEngine, task: str, ctx: TaskContext
    ) -> PlacementPlan | None:
        """Best placement that keeps the successor stage number unchanged.

        The candidates are the chain and the fully-fed placement on every
        processor hosting a successor replica, ranked by
        ``(finish, not one_to_one, processor)``.  They are visited in order
        of their finish-time bounds, and the visit stops once a bound
        exceeds the best finish found: a placement left out finishes later.
        """
        succs = engine.graph.predecessors(task)  # original successors
        if not succs:
            return None
        successor_replicas = [rep for succ in succs for rep in engine.schedule.replicas(succ)]
        processor_of = engine.schedule.processor_of
        used = ctx.used_kill
        ranked = []
        for proc in {processor_of(rep) for rep in successor_replicas}:
            if proc in used:
                continue
            bound = engine.chain_floor(task, proc, ctx)
            if bound is not None:
                ranked.append((bound, proc, False, engine.chain_sources(task, ctx, proc).values()))
            ranked.append((engine.regular_floor(task, proc, ctx), proc, True, successor_replicas))
        ranked.sort(key=itemgetter(0, 1, 2))
        floor = self._successor_stage_floor(engine, task)
        best: PlacementPlan | None = None
        for bound, proc, fully_fed, sources in ranked:
            if best is not None and bound > best.finish:
                break
            # the stage is known from the sources, so a placement past the
            # floor is rejected without planning it
            if engine.stage_on(task, proc, sources) > floor:
                continue
            if fully_fed:
                plan = engine.plan_regular(task, proc, ctx)
            else:
                plan = engine.plan_chain_on(task, proc, ctx)
            if plan is None:
                continue
            if best is None or (plan.finish, not plan.one_to_one, plan.processor) < (
                best.finish,
                not best.one_to_one,
                best.processor,
            ):
                best = plan
        return best

    # ------------------------------------------------------------------ policy
    def choose(self, engine: MappingEngine, task: str, ctx: TaskContext) -> PlacementPlan | None:
        succs = engine.graph.predecessors(task)
        if succs:
            if self.enable_rule1:
                plan = self._rule1_plan(engine, task, ctx)
                if plan is not None:
                    return plan
            if engine.options.enable_one_to_one:
                plan = engine.plan_chain(task, ctx)
                if plan is not None:
                    return plan
        return engine.plan_regular_best(task, ctx)


def rltf_schedule(
    graph: TaskGraph,
    platform: Platform,
    throughput: float | None = None,
    period: float | None = None,
    epsilon: int = 0,
    chunk_size: int | None = None,
    enable_one_to_one: bool = True,
    enable_rule1: bool = True,
    strict_throughput: bool = True,
    strict_resilience: bool = False,
    priorities: Mapping[str, float] | None = None,
) -> Schedule:
    """Schedule *graph* on *platform* with the R-LTF heuristic.

    The signature mirrors :func:`~repro.core.ltf.ltf_schedule`; the extra
    flag ``enable_rule1`` exists for the ablation benchmarks (disabling it
    degenerates into a bottom-up LTF).

    Returns
    -------
    Schedule
        A complete forward schedule (algorithm name ``"r-ltf"``) on the
        bottom-up assignment; ``stats["relaxed_placements"]`` counts its
        replicas placed against the throughput constraint.
    """
    resolved = resolve_period(throughput, period)
    options = SchedulerOptions(
        epsilon=epsilon,
        chunk_size=chunk_size,
        enable_one_to_one=enable_one_to_one,
        strict_throughput=strict_throughput,
        strict_resilience=strict_resilience,
    )
    reversed_graph = graph.reversed()
    engine = MappingEngine(
        reversed_graph,
        platform,
        resolved,
        options,
        algorithm="r-ltf/reverse-pass",
        priorities=priorities,
    )
    reverse_schedule = engine.run(RLTFPolicy(enable_rule1=enable_rule1))

    assignment = {task: reverse_schedule.processors_of_task(task) for task in graph.task_names}
    schedule = forced_schedule(graph, platform, resolved, assignment, "r-ltf", options)
    # keep the reverse-pass counters for inspection, prefixed to avoid clashes.
    for key, value in reverse_schedule.stats.items():
        schedule.stats[f"reverse_{key}"] = value
    return schedule
