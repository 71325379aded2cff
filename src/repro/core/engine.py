"""Shared greedy-mapping machinery for LTF and R-LTF.

Both heuristics of the paper share the same skeleton (Algorithm 4.1):

1. maintain a list ``α`` of *ready* tasks sorted by priority ``tl + bl``;
2. repeatedly extract a *chunk* ``β`` of the ``B`` highest-priority ready
   tasks (the *iso-level* idea inherited from Iso-Level CAFT — scheduling a
   group of tasks of comparable priority gives a better load balance than
   classical one-task-at-a-time list scheduling);
3. place the ``ε+1`` replicas of every task of the chunk, replica level by
   replica level, using either the **one-to-one mapping** procedure
   (Algorithm 4.2) while enough independent source replicas are available, or
   a **regular mapping** that selects the throughput-feasible processor with
   the smallest finish time;
4. enforce the throughput constraint — condition (1) of the paper — at every
   placement, and fail with :class:`~repro.exceptions.ThroughputInfeasibleError`
   when no processor can host a replica.

The two heuristics differ only in the *orientation* of the traversal (LTF is
top-down, R-LTF is bottom-up on the reversed graph) and in the
processor-selection policy (R-LTF first tries to keep the pipeline-stage
number constant — Rule 1 — before the one-to-one procedure, whose attempt
for every replica subsumes the structural Rule 2).  The
:class:`MappingEngine` below implements the shared skeleton and delegates
the per-replica decision to a policy object.
:func:`forced_schedule` runs it in topological order with every replica
forced onto an assigned processor (:class:`ForcedPolicy`): R-LTF's forward
pass, the mapping-only baselines and the ``remap`` policy.

Fault-tolerance bookkeeping
---------------------------
The paper requires that *valid results are provided even if ε processors
fail*.  With the one-to-one mapping, a replica only receives data from one
replica of each predecessor, so the guarantee relies on the independence of
the ``ε+1`` "chains" feeding the replicas of a task.  The paper enforces a
local form of this independence through *singleton* and *locked* processors;
this implementation tracks it exactly, via **kill sets**:

* a *fully-fed* replica (it receives data from **all** replicas of each
  predecessor) is invalidated only by the failure of its own processor — its
  kill set is ``{its processor}``;
* a *chain-fed* replica (one source per predecessor, built by the one-to-one
  procedure) is invalidated by the failure of any processor in
  ``{its processor} ∪ kill-sets of its sources``.

The engine maintains, for every task, the invariant that the kill sets of its
``ε+1`` replicas are **pairwise disjoint**; any ``c ≤ ε`` failures therefore
leave at least one valid replica of every task (see
:func:`repro.schedule.validation.check_resilience`, which re-verifies the
property a posteriori).  This is the transitive generalisation of the
singleton/locked-processor rule of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Protocol, Sequence

from repro.exceptions import (
    ReplicationError,
    ScheduleError,
    SchedulingError,
    ThroughputInfeasibleError,
)
from repro.graph.analysis import task_priorities
from repro.graph.dag import TaskGraph
from repro.platform.platform import Platform
from repro.schedule.replica import Replica
from repro.schedule.schedule import (
    PlacementPlan,
    Schedule,
    finish_floor,
    ordered_sources,
    plan_ordered,
    plan_placement,
)
from repro.utils.checks import check_positive

__all__ = [
    "SchedulerOptions",
    "TaskContext",
    "MappingPolicy",
    "MappingEngine",
    "ForcedPolicy",
    "forced_schedule",
    "resolve_period",
    "condition_one",
]

#: numerical slack on the throughput constraint (guards against FP rounding).
_TOL = 1e-9


def resolve_period(throughput: float | None = None, period: float | None = None) -> float:
    """Turn a ``(throughput, period)`` pair of optional arguments into a period ``Δ``.

    Exactly one of the two must be provided; the throughput ``T`` is the
    inverse of the period.
    """
    if (throughput is None) == (period is None):
        raise ValueError("provide exactly one of 'throughput' and 'period'")
    if throughput is not None:
        check_positive(throughput, "throughput")
        return 1.0 / throughput
    check_positive(period, "period")
    return float(period)


@dataclass
class SchedulerOptions:
    """Tunable knobs shared by LTF and R-LTF.

    Attributes
    ----------
    epsilon:
        Fault-tolerance degree ``ε`` (number of replicas is ``ε+1``).
    chunk_size:
        Size ``B`` of the iso-level chunk ``β``.  The paper uses ``B = m``;
        setting it to 1 degenerates to classical one-task list scheduling
        (used by the ablation benchmarks).
    enable_one_to_one:
        When False the one-to-one mapping procedure is disabled and every
        replica is fully fed (ablation knob; the ``(ε+1)²`` communication
        regime).
    strict_throughput:
        When True (default) a replica that cannot be placed without violating
        condition (1) aborts the scheduling with
        :class:`~repro.exceptions.ThroughputInfeasibleError` — the behaviour
        described in the paper.  When False the least-loaded processor is used
        instead and the violation is recorded in ``schedule.stats`` (useful for
        the baseline heuristics and for exploratory runs).
    strict_resilience:
        Controls how far the fault-independence bookkeeping looks:

        * ``False`` (default, the paper's behaviour): a replica placed through
          the one-to-one procedure is considered independent of its siblings as
          long as it avoids the *locked* processors — the processors hosting a
          sibling replica or one of the directly consumed source replicas.
          This is exactly the singleton/locked mechanism of Algorithm 4.2.
        * ``True``: independence is tracked *transitively* (the full kill set
          of every chain), the kill sets of the ``ε+1`` replicas of a task are
          kept pairwise disjoint and bounded by ``m/(ε+1)``, which provably
          guarantees a valid result under any ``ε`` failures — at the price of
          more fully-fed replicas (more communications) and earlier scheduling
          failures on tight platforms.  The ablation benchmarks compare both.
    """

    epsilon: int = 0
    chunk_size: int | None = None
    enable_one_to_one: bool = True
    strict_throughput: bool = True
    strict_resilience: bool = False

    def __post_init__(self) -> None:
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")


@dataclass
class TaskContext:
    """Per-task bookkeeping while its ``ε+1`` replicas are being placed."""

    task: str
    #: union of the kill sets of the replicas already placed for this task;
    #: no further replica of it may run on one of these processors.
    used_kill: set[str] = field(default_factory=set)
    #: source replicas already consumed by one-to-one chains of this task.
    consumed: set[Replica] = field(default_factory=set)
    #: processors held for the task's other replicas (forced assignment): a
    #: chain source whose kill set touches one is unavailable.
    reserved: frozenset[str] = frozenset()
    #: per predecessor, its replicas by finish time (the task's predecessors
    #: are all placed before the task, so this never changes).
    pred_replicas: dict[str, list[Replica]] | None = None
    #: the fully-fed source list of :func:`ordered_sources`, fixed likewise.
    full_sources: list | None = None


class MappingPolicy(Protocol):
    """Per-replica decision procedure plugged into the :class:`MappingEngine`."""

    def choose(self, engine: "MappingEngine", task: str, ctx: TaskContext) -> PlacementPlan | None:
        """Return the placement plan for the next replica of *task* (or ``None``
        if no feasible processor exists)."""
        ...  # pragma: no cover - Protocol


def condition_one(
    schedule: Schedule,
    plan: PlacementPlan,
    period: float,
) -> bool:
    """Condition (1) of the paper for a candidate placement.

    The placement is feasible when, after adding the replica and its
    communications, the compute load of the target processor, its incoming
    communication load, and the outgoing communication load of every source
    processor all remain below the period ``Δ = 1/T``.
    """
    limit = period + _TOL
    state = schedule.processor_state(plan.processor)
    if state.compute_load + plan.execution_time > limit:
        return False
    # plan.incoming_comm_time and plan.outgoing_comm_time_by_processor(),
    # summed in one pass over the comms
    incoming = 0.0
    outgoing: dict[str, float] = {}
    for comm in plan.comms:
        duration = comm.duration
        if duration > 0:
            incoming += duration
            outgoing[comm.source_processor] = outgoing.get(comm.source_processor, 0.0) + duration
    if state.comm_in_load + incoming > limit:
        return False
    for src_proc, added in outgoing.items():
        if schedule.processor_state(src_proc).comm_out_load + added > limit:
            return False
    return True


class MappingEngine:
    """Iso-level greedy mapper shared by LTF, R-LTF and the fault-free reference.

    Parameters
    ----------
    graph:
        The application graph *in the traversal orientation*: LTF passes the
        original graph, R-LTF passes the reversed graph.
    platform:
        Target platform.
    period:
        Iteration period ``Δ`` (inverse of the desired throughput).
    options:
        Shared scheduling knobs (ε, chunk size, one-to-one toggle...).
    algorithm:
        Name recorded in the resulting schedule.
    priorities:
        Optional priority override for :meth:`run`; defaults to ``tl + bl``
        computed on *graph* and *platform*.
    """

    def __init__(
        self,
        graph: TaskGraph,
        platform: Platform,
        period: float,
        options: SchedulerOptions,
        algorithm: str,
        priorities: Mapping[str, float] | None = None,
    ):
        if options.epsilon >= platform.num_processors:
            raise ReplicationError(
                f"epsilon={options.epsilon} requires at least {options.epsilon + 1} processors; "
                f"the platform only has {platform.num_processors}"
            )
        self.graph = graph
        self.platform = platform
        self.period = float(period)
        self.options = options
        self.schedule = Schedule(graph, platform, period, options.epsilon, algorithm)
        self._priorities = priorities
        self.chunk_size = options.chunk_size or platform.num_processors
        #: kill set of every placed replica (see module docstring).
        self.kill: dict[Replica, frozenset[str]] = {}
        #: pipeline stage of every placed replica, in the traversal orientation.
        self.stage: dict[Replica, int] = {}
        #: plans and source lists of the replica being decided (see
        #: :meth:`_place_one_replica`); ``None`` between decisions.
        self._memo: dict[tuple, object] | None = None
        self.schedule.stats.update(
            {
                "one_to_one_calls": 0,
                "regular_mappings": 0,
                "chunks": 0,
                "relaxed_placements": 0,
            }
        )

    # --------------------------------------------------------------- main loop
    def run(self, policy: MappingPolicy) -> Schedule:
        """Run the iso-level loop until every task has its ``ε+1`` replicas."""
        graph = self.graph
        priorities = self._priorities
        if priorities is None:
            priorities = task_priorities(graph, self.platform)
        in_degree = {t: graph.in_degree(t) for t in graph.task_names}
        ready: list[str] = [t for t in graph.task_names if in_degree[t] == 0]
        unscheduled = set(graph.task_names)

        while unscheduled:
            if not ready:
                raise SchedulingError(
                    "no ready task while some tasks are unscheduled; the graph may be cyclic"
                )
            beta = self._select_chunk(ready, priorities)
            self._schedule_chunk(beta, policy)
            for task in beta:
                unscheduled.discard(task)
                for succ in graph.successors(task):
                    in_degree[succ] -= 1
                    if in_degree[succ] == 0:
                        ready.append(succ)
        return self.schedule

    def run_in_order(self, policy: MappingPolicy, order: Iterable[str]) -> Schedule:
        """Place the tasks one at a time in *order*, which lists every task
        after its predecessors (a chunk of one task per step)."""
        for task in order:
            self._schedule_chunk((task,), policy)
        return self.schedule

    def _select_chunk(self, ready: list[str], priorities: Mapping[str, float]) -> list[str]:
        """Extract the ``B`` highest-priority ready tasks (the head function ``H``)."""
        ready.sort(key=lambda t: (-priorities[t], t))
        chunk = ready[: self.chunk_size]
        del ready[: self.chunk_size]
        return chunk

    def _schedule_chunk(self, beta: Sequence[str], policy: MappingPolicy) -> None:
        self.schedule.stats["chunks"] += 1
        contexts = {task: TaskContext(task=task) for task in beta}
        for _level in range(self.options.epsilon + 1):
            for task in beta:
                self._place_one_replica(task, contexts[task], policy)

    # ----------------------------------------------------------- single replica
    def _place_one_replica(self, task: str, ctx: TaskContext, policy: MappingPolicy) -> Replica:
        # Nothing is committed while the policy decides, so every plan and
        # source list it computes stays valid until the decision is made:
        # R-LTF's Rule 1 and its fallbacks share them instead of re-planning
        # the same (task, processor) pairs.
        self._memo = {}
        try:
            plan = policy.choose(self, task, ctx)
        finally:
            self._memo = None
        if plan is None:
            if self.options.strict_throughput:
                raise ThroughputInfeasibleError(task, self.period)
            plan = self._least_loaded_plan(task, ctx)
            if plan is None:
                raise ThroughputInfeasibleError(task, self.period)
            self.schedule.stats["relaxed_placements"] += 1
        replica = self.schedule.apply_placement(plan)
        self._register(replica, plan, ctx)
        return replica

    def _register(self, replica: Replica, plan: PlacementPlan, ctx: TaskContext) -> None:
        kill = {plan.processor}
        if plan.one_to_one:
            for comm in plan.comms:
                if self.options.strict_resilience:
                    kill |= self.kill[comm.source]
                else:
                    # paper semantics: only the directly involved processors
                    # become locked for the sibling replicas.
                    kill.add(comm.source_processor)
            ctx.consumed.update(c.source for c in plan.comms)
            self.schedule.stats["one_to_one_calls"] += 1
        else:
            self.schedule.stats["regular_mappings"] += 1
        self.kill[replica] = frozenset(kill)
        ctx.used_kill |= kill
        # what stage_on gives: a planned transfer is free iff its duration is 0
        stage = 1
        for comm in plan.comms:
            stage = max(stage, self.stage[comm.source] + (comm.duration > 0))
        self.stage[replica] = stage

    def stage_on(self, task: str, processor: str, sources: Iterable[Replica]) -> int:
        """The stage a replica of *task* on *processor* fed by *sources* gets.

        A source adds a stage unless its transfer is free.  The stage
        depends on the sources alone, so a policy that filters on stages
        can skip planning the placements it would reject.
        """
        schedule = self.schedule
        stage = 1
        for src in sources:
            src_proc = schedule.processor_of(src)
            free = src_proc == processor or not schedule.transfer_time(
                self.graph.volume(src.task, task), src_proc, processor
            )
            stage = max(stage, self.stage[src] + (0 if free else 1))
        return stage

    # --------------------------------------------------------------- candidates
    def _memoized(self, key: tuple, compute):
        """``compute()``, computed once per replica decision."""
        memo = self._memo
        if memo is None:
            return compute()
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    def _feasible(self, plan: PlacementPlan | None) -> PlacementPlan | None:
        """*plan* when it meets condition (1), else ``None``."""
        if plan is None or not condition_one(self.schedule, plan, self.period):
            return None
        return plan

    def _earliest_finish(self, ranked: list, plan_on) -> PlacementPlan | None:
        """The plan with the earliest finish, then the least-loaded processor
        (ties on finish time are frequent on lightly loaded platforms, and
        spreading the load keeps later placements feasible), then the
        processor name for determinism.

        *ranked* lists ``(bound, processor)`` pairs, where *bound* is a
        lower bound of the finish time of ``plan_on(processor)`` (a plan or
        ``None``).  They are planned in ascending order until a bound
        exceeds the best finish found: every plan left out finishes after
        it, so the choice is the one planning every candidate gives.
        """
        ranked.sort()
        compute_load = self.schedule.compute_load
        best: PlacementPlan | None = None
        best_key: tuple | None = None
        for bound, proc in ranked:
            if best is not None and bound > best.finish:
                break
            plan = plan_on(proc)
            if plan is None:
                continue
            key = (plan.finish, compute_load(proc), proc)
            if best_key is None or key < best_key:
                best, best_key = plan, key
        return best

    def _full_sources(self, task: str, ctx: TaskContext) -> list:
        """The fully-fed source list of *task* (:func:`ordered_sources` over
        every replica of every predecessor), built once per task."""
        flat = ctx.full_sources
        if flat is None:
            sources = {pred: self.schedule.replicas(pred) for pred in self.graph.predecessors(task)}
            flat = ctx.full_sources = ordered_sources(self.schedule, task, sources)
        return flat

    def full_plan(self, task: str, processor: str, ctx: TaskContext) -> PlacementPlan:
        """The fully-fed plan of *task* on *processor* (every replica of every
        predecessor is a source), condition (1) unchecked."""
        return plan_ordered(self.schedule, task, processor, self._full_sources(task, ctx))

    def regular_floor(self, task: str, processor: str, ctx: TaskContext) -> float:
        """A lower bound of the finish time of the fully-fed plan of *task*
        on *processor* (see :func:`~repro.schedule.schedule.finish_floor`)."""
        return self._memoized(
            ("regular-floor", task, processor),
            lambda: finish_floor(self.schedule, task, processor, self._full_sources(task, ctx)),
        )

    def chain_floor(self, task: str, processor: str, ctx: TaskContext) -> float | None:
        """A lower bound of the finish time of the chain of *task* ending on
        *processor*; ``None`` when no chain ends there."""
        return self._memoized(
            ("chain-floor", task, processor), lambda: self._chain_floor(task, processor, ctx)
        )

    def _chain_floor(self, task: str, processor: str, ctx: TaskContext) -> float | None:
        sources = self.chain_sources(task, ctx, processor)
        if sources is None:
            return None
        schedule = self.schedule
        finish, processor_of, volume = schedule.finish_time, schedule.processor_of, self.graph.volume
        flat = [
            (finish(rep), rep, processor_of(rep), volume(pred, task))
            for pred, rep in sources.items()
        ]
        return finish_floor(schedule, task, processor, flat)

    def plan_regular(self, task: str, processor: str, ctx: TaskContext) -> PlacementPlan | None:
        """Plan a fully-fed replica of *task* on *processor*; ``None`` if infeasible."""
        if processor in ctx.used_kill:
            return None
        return self._memoized(
            ("regular", task, processor),
            lambda: self._feasible(self.full_plan(task, processor, ctx)),
        )

    def plan_regular_best(self, task: str, ctx: TaskContext) -> PlacementPlan | None:
        """Fully-fed placement with minimum finish time over every processor."""
        used = ctx.used_kill
        ranked = [
            (self.regular_floor(task, proc, ctx), proc)
            for proc in self.platform.processor_names
            if proc not in used
        ]
        return self._earliest_finish(ranked, lambda proc: self.plan_regular(task, proc, ctx))

    def chain_source_candidates(self, task: str, ctx: TaskContext) -> dict[str, list[Replica]]:
        """For each predecessor of *task*, the replicas still available for a
        new one-to-one chain (not consumed, kill set disjoint from the sibling
        chains and from the reserved processors), sorted by finish time (the
        head of the sorted list is the paper's ``H(B(t_i))``)."""
        return self._memoized(
            ("chain-sources", task), lambda: self._chain_source_candidates(task, ctx)
        )

    def _chain_source_candidates(self, task: str, ctx: TaskContext) -> dict[str, list[Replica]]:
        by_finish = ctx.pred_replicas
        if by_finish is None:
            finish = self.schedule.finish_time
            by_finish = ctx.pred_replicas = {
                pred: sorted(self.schedule.replicas(pred), key=lambda r: (finish(r), r))
                for pred in self.graph.predecessors(task)
            }
        blocked = (ctx.used_kill | ctx.reserved) if ctx.reserved else ctx.used_kill
        kill, consumed = self.kill, ctx.consumed
        return {
            pred: [r for r in reps if r not in consumed and not (kill[r] & blocked)]
            for pred, reps in by_finish.items()
        }

    def plan_chain(self, task: str, ctx: TaskContext) -> PlacementPlan | None:
        """One-to-one mapping procedure (Algorithm 4.2).

        For every candidate target processor the procedure selects one source
        replica per predecessor — preferring a co-located source, otherwise the
        head of the availability list — such that the kill sets of the chosen
        sources are pairwise disjoint (and disjoint from the sibling chains),
        simulates the placement, checks condition (1), and finally returns the
        plan with the earliest finish time.  A processor whose finish-time
        bound (:meth:`chain_floor`) already exceeds the best finish found is
        not simulated.
        """
        used = ctx.used_kill
        ranked = []
        for proc in self.platform.processor_names:
            if proc not in used:
                bound = self.chain_floor(task, proc, ctx)
                if bound is not None:
                    ranked.append((bound, proc))
        return self._earliest_finish(ranked, lambda proc: self.plan_chain_on(task, proc, ctx))

    def plan_chain_on(self, task: str, processor: str, ctx: TaskContext) -> PlacementPlan | None:
        """Plan a chain-fed replica of *task* on *processor*; ``None`` if no
        independent chain ends there or the plan is infeasible."""
        return self._memoized(
            ("chain", task, processor),
            lambda: self._feasible(self.chain_plan(task, ctx, processor)),
        )

    def chain_sources(
        self, task: str, ctx: TaskContext, processor: str
    ) -> dict[str, Replica] | None:
        """The source per predecessor a chain of *task* ending on *processor*
        would use, or ``None`` when some predecessor has no source left (or
        *task* has no predecessor)."""
        return self._memoized(
            ("chain-pick", task, processor),
            lambda: self._pick_chain_sources(task, ctx, processor),
        )

    def chain_plan(self, task: str, ctx: TaskContext, processor: str) -> PlacementPlan | None:
        """The chain-fed plan of *task* on *processor*, condition (1)
        unchecked; ``None`` when no independent chain ends there."""
        sources = self.chain_sources(task, ctx, processor)
        if sources is None or processor in ctx.used_kill:
            return None
        if self.options.strict_resilience:
            support = {processor}
            for rep in sources.values():
                support |= self.kill[rep]
            if len(support) > self.max_support_size:
                return None
        return plan_placement(
            self.schedule,
            task,
            processor,
            {pred: [rep] for pred, rep in sources.items()},
            one_to_one=True,
        )

    def _pick_chain_sources(
        self, task: str, ctx: TaskContext, processor: str
    ) -> dict[str, Replica] | None:
        """Pick one source per predecessor for a chain ending on *processor*.

        The candidates are :meth:`chain_source_candidates`, already disjoint
        from the sibling chains; without a candidate for some predecessor
        there is no chain.  Sources of *different* predecessors are allowed
        to share support (overlap only weakens nothing — the chain is
        invalidated by a failure in the union of its sources' supports either
        way).  The only additional constraint is the support-size cap checked
        by the caller.

        Co-located sources are preferred (no communication, no stage change);
        otherwise the head of the availability list is taken — the paper's
        ``H(B(t_i))`` — except that sources hosted on a processor whose
        out-port budget is already exhausted are skipped when an alternative
        exists, because their outgoing communication would violate
        condition (1) on the source side.
        """
        available = self.chain_source_candidates(task, ctx)
        if not available or not all(available.values()):
            return None
        schedule = self.schedule
        processor_of = schedule.processor_of
        limit = self.period + _TOL
        chosen: dict[str, Replica] = {}
        for pred, reps in available.items():
            # rep ends as the co-located source, else the first whose
            # out-port still fits the transfer, else the head
            for rep in reps:
                if processor_of(rep) == processor:
                    break
            else:
                volume = self.graph.volume(pred, task)
                for rep in reps:
                    src_proc = processor_of(rep)
                    duration = schedule.transfer_time(volume, src_proc, processor)
                    if schedule.processor_state(src_proc).comm_out_load + duration <= limit:
                        break
                else:
                    rep = reps[0]
            chosen[pred] = rep
        return chosen

    @property
    def max_support_size(self) -> int:
        """Largest allowed kill-set size of a chain-fed replica.

        The kill sets of the ``ε+1`` replicas of a task must be pairwise
        disjoint subsets of the ``m`` processors; capping each of them at
        ``m // (ε+1)`` guarantees that the later replicas always have
        processors left to run on.  A chain whose support would exceed the cap
        falls back to full feeding, which resets the support to a single
        processor (task-level induction keeps the ε-failure guarantee).
        """
        return max(1, self.platform.num_processors // (self.options.epsilon + 1))

    # ------------------------------------------------------------------ fallback
    def _least_loaded_plan(self, task: str, ctx: TaskContext) -> PlacementPlan | None:
        """Non-strict fallback: fully-fed placement on the processor with the
        smallest compute load, ignoring condition (1) (never ignores the
        fault-independence constraints: a sibling's kill set includes its
        own processor)."""
        pool = [p for p in self.platform.processor_names if p not in ctx.used_kill]
        if not pool:
            return None
        proc = min(pool, key=lambda p: (self.schedule.compute_load(p), p))
        return self.full_plan(task, proc, ctx)


class ForcedPolicy:
    """Place replica ``k`` of every task on ``assignment[task][k]``.

    On its assigned processor ``p`` a replica takes the first plan that meets
    condition (1): the one-to-one chain of :meth:`MappingEngine.plan_chain`,
    then full feeding.  The chain's sources are kept off the processors
    assigned to the task's other replicas, which would otherwise enter a
    sibling's kill set and become unplaceable.  When neither plan meets
    condition (1) the assignment still stands: the chain if independent
    sources exist, otherwise full feeding, counted in
    ``stats["relaxed_placements"]``.
    """

    def __init__(self, assignment: Mapping[str, Sequence[str]]):
        self.assignment = assignment

    def choose(self, engine: MappingEngine, task: str, ctx: TaskContext) -> PlacementPlan:
        procs = self.assignment[task]
        proc = procs[len(engine.schedule.replicas(task))]
        ctx.reserved = frozenset(procs).difference((proc,))
        chain = engine.chain_plan(task, ctx, proc) if engine.options.enable_one_to_one else None
        if chain is not None and condition_one(engine.schedule, chain, engine.period):
            return chain
        full = engine.full_plan(task, proc, ctx)
        if condition_one(engine.schedule, full, engine.period):
            return full
        engine.schedule.stats["relaxed_placements"] += 1
        return chain if chain is not None else full


def forced_schedule(
    graph: TaskGraph,
    platform: Platform,
    period: float,
    assignment: Mapping[str, Sequence[str]],
    algorithm: str,
    options: SchedulerOptions | None = None,
) -> Schedule:
    """Schedule *graph* with every replica on the processor *assignment* gives it.

    *assignment* maps every task to ``ε+1`` distinct processors, one per
    replica; the tasks are placed in topological order under
    :class:`ForcedPolicy`, which never rejects the assignment
    (``stats["relaxed_placements"]`` counts the replicas placed against
    condition (1)).  *options* (default ``ε = 0``) supplies ``ε`` and the
    one-to-one and resilience knobs.
    """
    options = options or SchedulerOptions()
    factor = options.epsilon + 1
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
    engine = MappingEngine(graph, platform, period, options, algorithm)
    return engine.run_in_order(ForcedPolicy(assignment), graph.topological_order())
