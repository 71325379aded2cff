"""Forward schedule reconstruction from a fixed replica→processor assignment.

R-LTF traverses the application graph bottom-up (it runs the shared engine on
the *reversed* graph), which yields a processor assignment for every replica
but leaves the forward communication topology and the forward timing to be
derived.  :func:`build_forward_schedule` performs this derivation:

* tasks are replayed in forward topological order on their *forced*
  processors;
* for every replica, the builder first tries to **chain-feed** it (one source
  replica per predecessor), preferring co-located sources so that the pipeline
  stage does not increase, then sources with the smallest stage;
* when no kill-set-disjoint chain exists, the replica is **fully fed** (it
  receives data from every replica of each predecessor).

Kill-set bookkeeping mirrors :mod:`repro.core.engine` (see its docstring): all
processors hosting a sibling replica are excluded from a chain's support, so
the kill sets of the ``ε+1`` replicas of every task stay pairwise disjoint and
the ε-failure guarantee carries over to the rebuilt schedule.

The same helper doubles as a generic "mapping-only" front end: any heuristic
that only decides processor assignments (e.g. the related-work baselines) can
use it to obtain a full one-port schedule with stages, loads and timings.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.exceptions import ScheduleError
from repro.graph.dag import TaskGraph
from repro.platform.platform import Platform
from repro.schedule.replica import Replica
from repro.schedule.schedule import (
    PlacementPlan,
    Schedule,
    ordered_sources,
    plan_ordered,
    plan_placement,
)

__all__ = ["build_forward_schedule"]


def build_forward_schedule(
    graph: TaskGraph,
    platform: Platform,
    period: float,
    epsilon: int,
    assignment: Mapping[str, Sequence[str]],
    algorithm: str = "rebuilt",
    prefer_one_to_one: bool = True,
    strict_resilience: bool = False,
) -> Schedule:
    """Build a complete forward schedule from a per-task processor assignment.

    Parameters
    ----------
    assignment:
        Mapping ``task -> sequence of ε+1 distinct processors`` (one per
        replica).  Every task of *graph* must be present.
    prefer_one_to_one:
        When True (default) the builder chain-feeds replicas whenever a
        kill-set-disjoint chain exists; when False every replica is fully fed.

    Returns
    -------
    Schedule
        The rebuilt schedule.  ``schedule.stats`` records the number of
        chain-fed and fully-fed replicas and the number of processors whose
        steady-state load exceeds the period (the builder never rejects the
        forced assignment; feasibility is the caller's responsibility).
    """
    schedule = Schedule(graph, platform, period, epsilon, algorithm)
    factor = epsilon + 1
    for task in graph.task_names:
        procs = assignment.get(task)
        if procs is None:
            raise ScheduleError(f"assignment is missing task {task!r}")
        if len(procs) != factor:
            raise ScheduleError(
                f"task {task!r} is assigned {len(procs)} processors, expected {factor}"
            )
        if len(set(procs)) != len(procs):
            raise ScheduleError(f"task {task!r} is assigned duplicate processors: {procs}")

    kill: dict[Replica, frozenset[str]] = {}
    stage: dict[Replica, int] = {}
    schedule.stats.update({"chain_fed": 0, "fully_fed": 0, "overloaded_processors": 0})

    for task in graph.topological_order():
        preds = graph.predecessors(task)
        procs = list(assignment[task])
        sibling_procs = set(procs)
        used_kill: set[str] = set()
        consumed: set[Replica] = set()
        # every replica of a predecessor is already placed, so the fully-fed
        # source list is the same for all replicas of the task
        full_sources = None

        for proc in procs:
            plan: PlacementPlan | None = None
            if preds and prefer_one_to_one:
                sources = _pick_chain_sources(
                    schedule, kill, stage, task, proc, used_kill | sibling_procs - {proc}, consumed
                )
                if sources is not None:
                    support = {proc}
                    for rep in sources.values():
                        support |= kill[rep]
                    max_support = (
                        max(1, platform.num_processors // (epsilon + 1))
                        if strict_resilience
                        else platform.num_processors
                    )
                    if len(support) <= max_support:
                        plan = plan_placement(
                            schedule,
                            task,
                            proc,
                            {pred: [rep] for pred, rep in sources.items()},
                            one_to_one=True,
                        )
            if plan is None:
                if full_sources is None:
                    full_sources = ordered_sources(
                        schedule, task, {pred: schedule.replicas(pred) for pred in preds}
                    )
                plan = plan_ordered(schedule, task, proc, full_sources)

            replica = schedule.apply_placement(plan)
            if plan.one_to_one:
                ks = {proc}
                for comm in plan.comms:
                    if strict_resilience:
                        ks |= kill[comm.source]
                    else:
                        ks.add(schedule.processor_of(comm.source))
                consumed.update(c.source for c in plan.comms)
                schedule.stats["chain_fed"] += 1
            else:
                ks = {proc}
                schedule.stats["fully_fed"] += 1
            kill[replica] = frozenset(ks)
            used_kill |= ks
            st = 1
            for comm in plan.comms:
                eta = 0 if comm.duration == 0 else 1
                st = max(st, stage[comm.source] + eta)
            stage[replica] = st

    schedule.stats["overloaded_processors"] = sum(
        1
        for state in schedule.processor_states.values()
        if state.cycle_time > period * (1 + 1e-9)
    )
    return schedule


def _pick_chain_sources(
    schedule: Schedule,
    kill: Mapping[Replica, frozenset[str]],
    stage: Mapping[Replica, int],
    task: str,
    processor: str,
    forbidden: set[str],
    consumed: set[Replica],
) -> dict[str, Replica] | None:
    """One source per predecessor, disjoint from the sibling supports, favouring low stages.

    Sources are ranked by ``(stage + η, finish time)`` where ``η = 0`` when the
    source is co-located with *processor* — i.e. the builder favours sources
    that do not push the replica into a later pipeline stage.  Sources of
    different predecessors are allowed to share support; only the supports of
    sibling replicas (*forbidden*) must be avoided.
    """
    graph = schedule.graph
    chosen: dict[str, Replica] = {}
    for pred in sorted(graph.predecessors(task)):
        candidates = [
            r
            for r in schedule.replicas(pred)
            if r not in consumed and not (kill[r] & forbidden)
        ]
        if not candidates:
            return None

        volume = graph.volume(pred, task)

        def rank(rep: Replica) -> tuple:
            src_proc = schedule.processor_of(rep)
            eta = 0 if src_proc == processor else 1
            duration = schedule.transfer_time(volume, src_proc, processor)
            overloads = (
                schedule.processor_state(src_proc).comm_out_load + duration
                > schedule.period * (1 + 1e-9)
            )
            return (stage[rep] + eta, overloads, schedule.finish_time(rep), rep)

        chosen[pred] = min(candidates, key=rank)
    return chosen
