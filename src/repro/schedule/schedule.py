"""The :class:`Schedule` produced by the heuristics.

A schedule records, for a given application graph, platform, period ``Δ`` and
fault-tolerance degree ``ε``:

* the **mapping**: which processor executes each replica (the mapping matrix
  ``X`` of the paper);
* the **communication topology**: for every replica, the set of predecessor
  replicas it receives its inputs from (one source per predecessor task when
  the one-to-one mapping procedure was used, all ``ε+1`` sources otherwise);
* the **timing of one instance** of the stream under the one-port model:
  start/finish time of every replica, start/finish of every communication on
  the sender's out-port and the receiver's in-port;
* the **steady-state loads** ``Σ_u``, ``C^I_u``, ``C^O_u`` that the throughput
  condition constrains.

Candidate placements are evaluated *without mutating* the schedule through
:func:`plan_placement`, which returns a :class:`PlacementPlan`; the chosen plan
is then committed with :meth:`Schedule.apply_placement`.  This keeps the
heuristics simple (no undo) while preserving the one-port semantics during the
search.

Planning is the schedulers' hot path, so a candidate pays only for its own
slot search: it plans on check-free
:class:`~repro.utils.intervals.ScratchTimeline` copies of the port timelines,
reads execution times from a per-schedule memo and link bandwidths from the
platform's cached link table, and a caller planning one task on many
processors orders its sources once (:func:`ordered_sources`) and plans each
candidate with :func:`plan_ordered`.  :func:`finish_floor` bounds a
candidate's finish time from below without planning it, so a caller looking
for the earliest finish plans only the candidates that can still win.  Only
:meth:`Schedule.apply_placement` reserves, with every overlap and validity
check, and it builds no object per reservation.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from repro.exceptions import ScheduleError
from repro.graph.dag import TaskGraph
from repro.platform.platform import Platform
from repro.schedule.ports import ProcessorTimelines
from repro.schedule.replica import Replica
from repro.utils.checks import check_positive
from repro.utils.intervals import ScratchTimeline, earliest_common_slot

__all__ = [
    "CommEvent",
    "PlacementPlan",
    "PlannedComm",
    "Schedule",
    "finish_floor",
    "ordered_sources",
    "plan_ordered",
    "plan_placement",
]


@dataclass(frozen=True)
class CommEvent:
    """A committed communication between two replicas.

    ``duration == 0`` denotes a local transfer (source and destination replicas
    are co-located); such events still matter because they define the
    communication topology used by the stage computation and by the crash
    evaluation.
    """

    source: Replica
    destination: Replica
    volume: float
    start: float
    duration: float

    @property
    def end(self) -> float:
        """Arrival time of the data at the destination processor."""
        return self.start + self.duration

    @property
    def is_local(self) -> bool:
        """True when the transfer happens inside a single processor."""
        return self.duration == 0.0


class PlannedComm(NamedTuple):
    """One communication of a not-yet-committed :class:`PlacementPlan`."""

    source: Replica
    source_processor: str
    volume: float
    start: float
    duration: float

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(slots=True)
class PlacementPlan:
    """The outcome of simulating the placement of one replica on one processor."""

    replica: Replica
    processor: str
    start: float
    finish: float
    comms: tuple[PlannedComm, ...] = ()
    one_to_one: bool = False

    @property
    def execution_time(self) -> float:
        """Execution time of the replica on the chosen processor."""
        return self.finish - self.start

    @property
    def incoming_comm_time(self) -> float:
        """Total non-local incoming communication time added on the processor's in-port."""
        return sum(c.duration for c in self.comms if c.duration > 0)

    def outgoing_comm_time_by_processor(self) -> dict[str, float]:
        """Non-local outgoing communication time added per source processor."""
        out: dict[str, float] = {}
        for c in self.comms:
            if c.duration > 0:
                out[c.source_processor] = out.get(c.source_processor, 0.0) + c.duration
        return out


class Schedule:
    """A replicated pipelined schedule (see module docstring)."""

    def __init__(
        self,
        graph: TaskGraph,
        platform: Platform,
        period: float,
        epsilon: int = 0,
        algorithm: str = "unknown",
    ):
        graph.validate()
        check_positive(period, "period")
        if epsilon < 0:
            raise ScheduleError(f"epsilon must be >= 0, got {epsilon}")
        if epsilon >= platform.num_processors:
            raise ScheduleError(
                f"epsilon={epsilon} requires at least {epsilon + 1} processors, "
                f"platform only has {platform.num_processors}"
            )
        self.graph = graph
        self.platform = platform
        self.period = float(period)
        self.epsilon = int(epsilon)
        self.algorithm = algorithm

        self._assignment: dict[Replica, str] = {}
        self._replicas_of: dict[str, list[Replica]] = {t: [] for t in graph.task_names}
        self._start: dict[Replica, float] = {}
        self._finish: dict[Replica, float] = {}
        self._sources: dict[Replica, dict[str, list[Replica]]] = {}
        #: committed transfers as ``(source, destination, volume, start,
        #: duration)`` rows; :attr:`comm_events` builds their events on read.
        self._comm_rows: list[tuple[Replica, Replica, float, float, float]] = []
        self._comm_events: list[CommEvent] = []
        self._proc_state: dict[str, ProcessorTimelines] = {
            name: ProcessorTimelines(name) for name in platform.processor_names
        }
        #: ``(task, processor) -> execution time`` memo; works and speeds never change.
        self._exec_times: dict[tuple[str, str], float] = {}
        #: free-form counters filled by the schedulers (one-to-one calls, fallbacks...)
        self.stats: dict[str, float] = {}

    # ------------------------------------------------------------------ basics
    @property
    def replication_factor(self) -> int:
        """Number of copies of each task, ``ε + 1``."""
        return self.epsilon + 1

    @property
    def throughput(self) -> float:
        """Target throughput ``T = 1/Δ``."""
        return 1.0 / self.period

    def replicas(self, task: str) -> tuple[Replica, ...]:
        """``B(t)`` — the replicas of *task* already placed, in placement order."""
        if task not in self._replicas_of:
            raise ScheduleError(f"unknown task {task!r}")
        return tuple(self._replicas_of[task])

    def all_replicas(self) -> Iterator[Replica]:
        """Iterate over every placed replica."""
        return iter(self._assignment.keys())

    @property
    def num_placed_replicas(self) -> int:
        """Number of replicas placed so far."""
        return len(self._assignment)

    def is_complete(self) -> bool:
        """True when every task has exactly ``ε+1`` placed replicas."""
        return all(
            len(self._replicas_of[t]) == self.replication_factor for t in self.graph.task_names
        )

    def processor_of(self, replica: Replica) -> str:
        """Processor hosting *replica*."""
        try:
            return self._assignment[replica]
        except KeyError:
            raise ScheduleError(f"replica {replica!r} is not placed") from None

    def processors_of_task(self, task: str) -> tuple[str, ...]:
        """Processors hosting the replicas of *task*."""
        return tuple(self._assignment[r] for r in self.replicas(task))

    def replicas_on(self, processor: str) -> tuple[Replica, ...]:
        """Replicas hosted by *processor*."""
        self.platform.processor(processor)
        return tuple(r for r, p in self._assignment.items() if p == processor)

    def start_time(self, replica: Replica) -> float:
        """Start time of *replica* within one instance of the stream."""
        return self._start[replica]

    def finish_time(self, replica: Replica) -> float:
        """Finish time of *replica* within one instance of the stream."""
        return self._finish[replica]

    def sources_of(self, replica: Replica) -> Mapping[str, Sequence[Replica]]:
        """For each predecessor task, the replicas *replica* receives data from."""
        return {k: tuple(v) for k, v in self._sources.get(replica, {}).items()}

    def execution_time_of(self, replica: Replica) -> float:
        """Execution time of *replica* on its assigned processor.

        Read-only accessor used by the simulation kernel (:mod:`repro.sim`):
        the kernel never touches the schedule's mutable state, it only reads
        the mapping, the communication topology and the per-replica durations.
        """
        return self.execution_time(replica.task, self.processor_of(replica))

    def execution_time(self, task: str, processor: str) -> float:
        """Execution time of *task* on *processor* (memoised per schedule)."""
        key = (task, processor)
        exec_time = self._exec_times.get(key)
        if exec_time is None:
            exec_time = self.platform.execution_time(self.graph.work(task), processor)
            self._exec_times[key] = exec_time
        return exec_time

    def transfer_time(self, volume: float, src: str, dst: str) -> float:
        """Transfer time of *volume* from *src* to *dst* (0 when co-located).

        Equal to :meth:`Platform.communication_time` without re-validating a
        volume the graph already checked.  The bandwidth comes from the
        platform's link table, which :meth:`Platform.set_bandwidth` rebuilds,
        so a duration never predates a bandwidth change.
        """
        if src == dst:
            return 0.0
        return volume / self.platform.link_bandwidths()[(src, dst)]

    def compute_intervals(self, processor: str) -> tuple:
        """Busy intervals of the compute resource of *processor* (read-only)."""
        return self.processor_state(processor).compute.intervals

    def in_port_intervals(self, processor: str) -> tuple:
        """Busy intervals of the in-port of *processor* (read-only)."""
        return self.processor_state(processor).in_port.intervals

    def out_port_intervals(self, processor: str) -> tuple:
        """Busy intervals of the out-port of *processor* (read-only)."""
        return self.processor_state(processor).out_port.intervals

    @property
    def comm_events(self) -> tuple[CommEvent, ...]:
        """Every committed communication, local ones included."""
        events, rows = self._comm_events, self._comm_rows
        if len(events) < len(rows):
            events.extend(CommEvent(*row) for row in rows[len(events) :])
        return tuple(events)

    def processor_state(self, processor: str) -> ProcessorTimelines:
        """One-port state of *processor* (timelines and loads)."""
        try:
            return self._proc_state[processor]
        except KeyError:
            raise ScheduleError(f"unknown processor {processor!r}") from None

    @property
    def processor_states(self) -> Mapping[str, ProcessorTimelines]:
        """One-port state of every processor."""
        return dict(self._proc_state)

    @property
    def makespan(self) -> float:
        """Completion time of the last replica of one instance (not the latency)."""
        if not self._finish:
            return 0.0
        return max(self._finish.values())

    # -------------------------------------------------------------- mutation
    def next_replica(self, task: str) -> Replica:
        """The next replica of *task* to be placed (1-based index)."""
        placed = len(self._replicas_of[task])
        if placed >= self.replication_factor:
            raise ScheduleError(
                f"task {task!r} already has its {self.replication_factor} replicas placed"
            )
        return Replica(task, placed + 1)

    def apply_placement(self, plan: PlacementPlan) -> Replica:
        """Commit a :class:`PlacementPlan`: reserve ports, record the mapping.

        Raises
        ------
        ScheduleError
            If the replica is already placed, if another replica of the same
            task already occupies the processor (replicas must be on pairwise
            distinct processors), or if the processor is unknown.
        """
        replica, proc = plan.replica, plan.processor
        state = self._proc_state.get(proc)
        if state is None:
            self.platform.processor(proc)  # raises PlatformError
        if replica in self._assignment:
            raise ScheduleError(f"replica {replica!r} is already placed")
        placed = self._replicas_of.get(replica.task)
        if placed is None:
            raise ScheduleError(f"unknown task {replica.task!r}")
        assignment = self._assignment
        for other in placed:
            if assignment[other] == proc:
                raise ScheduleError(
                    f"processor {proc!r} already hosts a replica of task {replica.task!r}"
                )

        # Commit communications first (out-port of the source, in-port of proc).
        proc_state, rows = self._proc_state, self._comm_rows
        sources: dict[str, list[Replica]] = {}
        for source, src_proc, volume, start, duration in plan.comms:
            if duration > 0:
                label = (source, replica)
                proc_state[src_proc].reserve_outgoing(start, duration, label)
                state.reserve_incoming(start, duration, label)
            rows.append((source, replica, volume, start, duration))
            sources.setdefault(source.task, []).append(source)

        exec_time = self.execution_time(replica.task, proc)
        state.reserve_compute(plan.start, exec_time, replica)

        assignment[replica] = proc
        placed.append(replica)
        self._start[replica] = plan.start
        self._finish[replica] = plan.start + exec_time
        self._sources[replica] = sources
        return replica

    # ------------------------------------------------------------ derived data
    def mapping_matrix(self) -> np.ndarray:
        """The ``v × m`` binary mapping matrix ``X`` of the paper."""
        tasks = self.graph.task_names
        procs = self.platform.processor_names
        x = np.zeros((len(tasks), len(procs)), dtype=np.int8)
        proc_index = {p: j for j, p in enumerate(procs)}
        task_index = {t: i for i, t in enumerate(tasks)}
        for replica, proc in self._assignment.items():
            x[task_index[replica.task], proc_index[proc]] = 1
        return x

    def compute_load(self, processor: str) -> float:
        """``Σ_u`` of *processor*."""
        return self.processor_state(processor).compute_load

    def comm_in_load(self, processor: str) -> float:
        """``C^I_u`` of *processor*."""
        return self.processor_state(processor).comm_in_load

    def comm_out_load(self, processor: str) -> float:
        """``C^O_u`` of *processor*."""
        return self.processor_state(processor).comm_out_load

    def cycle_time(self, processor: str) -> float:
        """``Δ_u`` of *processor*."""
        return self.processor_state(processor).cycle_time

    @property
    def max_cycle_time(self) -> float:
        """``max_u Δ_u`` — the inverse of the achieved throughput."""
        return max(s.cycle_time for s in self._proc_state.values())

    @property
    def achieved_throughput(self) -> float:
        """Throughput actually achieved by the mapping, ``1 / max_u Δ_u``."""
        mct = self.max_cycle_time
        return float("inf") if mct == 0 else 1.0 / mct

    def used_processors(self) -> tuple[str, ...]:
        """Processors hosting at least one replica."""
        return tuple(sorted({p for p in self._assignment.values()}))

    def gantt(self) -> list[tuple[str, str, float, float]]:
        """Rows ``(processor, replica, start, finish)`` sorted by processor then start."""
        rows = [
            (proc, repr(rep), self._start[rep], self._finish[rep])
            for rep, proc in self._assignment.items()
        ]
        rows.sort(key=lambda r: (r[0], r[2]))
        return rows

    def __repr__(self) -> str:
        return (
            f"Schedule(algorithm={self.algorithm!r}, graph={self.graph.name!r}, "
            f"replicas={self.num_placed_replicas}/{self.graph.num_tasks * self.replication_factor}, "
            f"period={self.period:g}, epsilon={self.epsilon})"
        )


# --------------------------------------------------------------------- planning
#: sort key of :func:`ordered_sources`: data-ready instant, then source replica.
_READY_ORDER = itemgetter(0, 1)


def plan_placement(
    schedule: Schedule,
    task: str,
    processor: str,
    sources: Mapping[str, Iterable[Replica]],
    one_to_one: bool = False,
) -> PlacementPlan:
    """Simulate placing the next replica of *task* on *processor*.

    Parameters
    ----------
    schedule:
        The partially built schedule (left untouched).
    task, processor:
        The task whose next replica is being considered and the candidate
        processor.
    sources:
        For each predecessor task of *task*, the replicas this new replica
        would receive its input from.  Every predecessor task of *task* must be
        covered (the heuristics guarantee this: predecessors are always
        scheduled before their successors in the traversal order used).
    one_to_one:
        Marker recorded in the plan for statistics (no semantic effect here).

    Returns
    -------
    PlacementPlan
        Start/finish time of the replica and the planned communications, all
        computed under the one-port model on scratch copies of the relevant
        timelines (the schedule is not modified).
    """
    return plan_ordered(
        schedule, task, processor, ordered_sources(schedule, task, sources), one_to_one
    )


def ordered_sources(
    schedule: Schedule, task: str, sources: Mapping[str, Iterable[Replica]]
) -> list[tuple[float, Replica, str, float]]:
    """Validate *sources* and flatten them for :func:`plan_ordered`.

    Returns one ``(ready, source replica, source processor, volume)`` entry
    per source, ordered by the moment its data is produced: this mimics a
    runtime that forwards results as soon as they are available and keeps
    the plan deterministic.  The list does not depend on the candidate
    processor, so a caller planning *task* on many processors builds it
    once.
    """
    graph = schedule.graph
    preds = graph.predecessors(task)
    missing = set(preds) - set(sources.keys())
    if missing:
        raise ScheduleError(
            f"placement of {task!r} is missing sources for predecessors {sorted(missing)}"
        )
    assignment, finish = schedule._assignment, schedule._finish
    flat: list[tuple[float, Replica, str, float]] = []
    for pred_task in sorted(preds):
        srcs = list(sources[pred_task])
        if not srcs:
            raise ScheduleError(f"empty source list for predecessor {pred_task!r} of {task!r}")
        vol = graph.volume(pred_task, task)
        for src in srcs:
            src_proc = assignment.get(src)
            if src_proc is None:
                raise ScheduleError(f"source replica {src!r} is not placed yet")
            flat.append((finish[src], src, src_proc, vol))
    flat.sort(key=_READY_ORDER)
    return flat


def plan_ordered(
    schedule: Schedule,
    task: str,
    processor: str,
    flat: Sequence[tuple[float, Replica, str, float]],
    one_to_one: bool = False,
) -> PlacementPlan:
    """:func:`plan_placement` on sources already flattened by :func:`ordered_sources`.

    Each remote transfer takes the earliest slot free on both the sender's
    out-port and the receiver's in-port; the slot is occupied on scratch
    copies of the two ports so later transfers of the same plan queue
    behind it.
    """
    replica = schedule.next_replica(task)
    state = schedule.processor_state(processor)
    proc_state = schedule._proc_state
    in_port = None
    out_ports = {}
    planned: list[PlannedComm] = []
    data_ready = 0.0
    for ready, src, src_proc, vol in flat:
        if src_proc == processor:
            planned.append(PlannedComm(src, src_proc, vol, ready, 0.0))
            arrival = ready
        else:
            if in_port is None:
                in_port = ScratchTimeline(state.in_port)
            duration = schedule.transfer_time(vol, src_proc, processor)
            out = out_ports.get(src_proc)
            if out is None:
                out = out_ports[src_proc] = ScratchTimeline(proc_state[src_proc].out_port)
            start = earliest_common_slot((out, in_port), ready, duration)
            out.occupy(start, duration)
            in_port.occupy(start, duration)
            planned.append(PlannedComm(src, src_proc, vol, start, duration))
            arrival = start + duration
        if arrival > data_ready:
            data_ready = arrival

    exec_time = schedule.execution_time(task, processor)
    start = state.compute.earliest_slot(data_ready, exec_time)
    return PlacementPlan(replica, processor, start, start + exec_time, tuple(planned), one_to_one)


def finish_floor(
    schedule: Schedule,
    task: str,
    processor: str,
    flat: Iterable[tuple[float, Replica, str, float]],
) -> float:
    """A lower bound of ``plan_ordered(schedule, task, processor, flat).finish``.

    A transfer starts no earlier than its data is ready and port contention
    only delays it, so the data arrive no earlier than the latest ``ready``
    plus transfer time.  The compute slot after that instant is bounded by
    :meth:`~repro.utils.intervals.Timeline.slot_floor`.  The bound costs one
    pass over the sources and one slot scan; when no port delays a
    transfer it is usually the plan's finish, or ``2·_EPS`` less.
    """
    links = schedule.platform.link_bandwidths()
    data_ready = 0.0
    for ready, _src, src_proc, vol in flat:
        if src_proc != processor:
            ready = ready + vol / links[(src_proc, processor)]
        if ready > data_ready:
            data_ready = ready
    exec_time = schedule.execution_time(task, processor)
    return schedule._proc_state[processor].compute.slot_floor(data_ready, exec_time) + exec_time
