"""The one-port pipeline kernel: replicated compute + transfer event loop.

The kernel executes the steady-state pipeline of a complete
:class:`~repro.schedule.schedule.Schedule` one event at a time:

* every valid replica executes one *compute operation* per admitted data set,
  on its assigned processor, in FIFO order of the data sets;
* every recorded communication gives one *transfer operation* per data set,
  occupying the sender's out-port and the receiver's in-port simultaneously
  (the bi-directional one-port model);
* a replica starts processing data set ``j`` once, for each predecessor task,
  the first input for ``j`` has arrived (active replication: the earliest
  valid copy wins);
* a data set *completes* when every exit task has produced it at least once.

Three admission methods share this loop:

* :meth:`PipelineKernel.admit` admits one data set at a time (dataset-major):
  the drive of the online runtime between fault events, window by window,
  on sequence numbers drawn ahead with :meth:`PipelineKernel.reserve` so
  that window boundaries never change which event wins a same-instant tie;
* :meth:`PipelineKernel.admit_batch` pushes the release events of a whole
  release list up front, replica-major (one ``heapify``) — the event order
  of the original offline simulator, kept as the one-shot reference the
  runtime's drive is tested against;
* :meth:`PipelineKernel.admit_restored` replays a checkpoint (below).

Every admission rejects a NaN, infinite or negative release instant with
a :class:`~repro.exceptions.ScheduleError` naming the argument.

On top of plain execution the kernel supports the two online semantics the
runtime needs:

* :meth:`crash` marks a processor dead **mid-run**: queued/in-flight compute
  and transfer operations of that processor are cancelled (fail-stop: its
  memory and in-flight messages are lost), while operations that finished at
  or before the crash instant stand.  Port reservations already granted are
  not rolled back — a conservative, deterministic simplification;
* :meth:`completed_tasks` / :meth:`admit_restored` implement
  **checkpoint/restart**: completed per-task outputs (assumed copied to
  stable storage as they are produced) are replayed into a fresh kernel built
  on a rebuilt schedule, so in-flight data sets survive a rebuild instead of
  re-executing from scratch.  Restored outputs are delivered to their
  consumers at the restore instant with no transfer cost (they come from the
  checkpoint store, not from a peer's out-port).

State layout — one record per live data set
-------------------------------------------

Every valid replica gets a dense index and fixed offsets into a per-data-set
**record**, one flat list holding everything the loop knows about that data
set::

    [refs, exits, index, release, completion,      # header
     mask_0, finish_0, done_0,                      # replica 0
     mask_1, finish_1, done_1, ...,                 # replica 1, ...
     first_0, first_1, ...]                         # one per exit task

``refs`` counts the pending events that reference the record, ``exits`` the
exit tasks produced so far; ``mask_i`` is replica *i*'s input bitmask (one bit
per predecessor task), ``finish_i`` the scheduled finish of its compute
(``None`` until it starts), ``done_i`` its actual completion, and
``first_k`` the first completion of exit task *k*.  Records live in one dict
keyed by data-set index, in admission order.

Events live in one binary heap keyed by ``(time, seq)``: *seq* is drawn from
a counter that only grows, so events at the same instant pop in the order
their numbers were drawn — the tie rule every run relies on to stay bit-for-bit
reproducible.  A number is normally drawn at push time; :meth:`reserve`
draws the numbers of later admissions ahead, which is still the one rule: a
release wins the ties its reservation predates.  Heap entries are flat
tuples ``(time, seq, kind, operand, record)``, and ``(time, seq)`` is always
a unique sort key, so the comparison never reaches the kind or the operand.
The operand is the replica state (release, compute completion), ``None``
(the merged release of every entry replica) or a prebuilt, shared *link*
tuple (transfer arrival) — so the loop allocates exactly one tuple per event
and reaches the record without a dictionary lookup.  Compute, out-port and
in-port free times are lists indexed by processor index, and the crashed set
holds indices.

An event that falls due at the instant it is pushed — a zero-cost transfer
between co-located replicas, or a duration absorbed by rounding — skips the
heap: it goes to a FIFO of ``(kind, operand, record)`` tuples.  Within one
drain every push draws a sequence number above every heap entry, so such an
event pops after every heap entry due at that instant, and in push order;
the loop pops the heap while its top is due now and the FIFO otherwise,
which is that order exactly.  The FIFO is empty whenever a drain returns.

Memory model — the eviction watermark
-------------------------------------

Every event pushed for a data set increments its record's ``refs`` and every
event popped decrements it; the moment a *completed* data set's count drops
to zero (no pending event references it, so nothing can touch its state
again) its record leaves the dict.  Live state is bounded by the pipeline
depth, not the stream length.  Completions are therefore reported through
the :meth:`run_until` / :meth:`run_to_completion` drains: the queries
(:meth:`completion_of`, :meth:`pending_datasets`, :meth:`completed_tasks`)
see live records only, and re-admitting a retired index raises (indices at
or below the highest evicted one are rejected).
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.exceptions import ScheduleError
from repro.schedule.replica import Replica
from repro.schedule.schedule import Schedule
from repro.schedule.validation import valid_replicas_under_failures

__all__ = ["PipelineKernel", "EVENT_KIND_NAMES"]

#: event kinds understood by the loop — interned small ints, not strings: the
#: hot loop dispatches on them once per event, and an int compare is one
#: pointer-width comparison with no type dispatch.  ``_RELEASE_ALL`` is the
#: merged form used by one-at-a-time admission: the E entry-replica release
#: events of one data set always occupy adjacent tie-break slots at the same
#: instant, so folding them into a single event that kicks every entry
#: replica in declaration order is pop-for-pop identical — and saves E−1
#: heap operations per data set.
_RELEASE = 0
_COMPUTED = 1
_ARRIVED = 2
_RELEASE_ALL = 3

#: public names of the event kinds, indexed by the interned kind ints above —
#: the vocabulary of :meth:`repro.obs.probe.Probe.on_kernel_events` counters.
EVENT_KIND_NAMES = ("release", "compute-complete", "transfer-arrive", "release-all")

#: header slots of a data-set record (see the module docstring); replica
#: slots start at ``_HEADER``.
_REFS = 0
_EXITS = 1
_INDEX = 2
_RELEASED = 3
_COMPLETION = 4
_HEADER = 5


@dataclass(slots=True)
class _ReplicaRun:
    """Static description of one alive replica: where its state sits in a
    data-set record, and where its outputs go.

    ``__slots__`` (via ``dataclass(slots=True)``): one of these exists per
    valid replica and its attributes are read on every event — fixed slot
    offsets beat a per-instance ``__dict__`` on both memory and access time.

    Input tracking is a **bitmask** per data set (record slot
    ``mask_slot``), not a set of task names: every predecessor task owns one
    bit (``pred_bit``), a replica may start once the mask equals
    ``full_mask``, and a duplicate arrival (active replication: several
    source replicas forward the same task's output) is an OR that changes
    nothing — no per-pair set allocations, no hashing of task names in the
    hot loop.
    """

    replica: Replica
    #: dense index of this state in the kernel's replica order.
    index: int
    #: processor index (position in the platform's processor names).
    proc: int
    duration: float
    #: record slots of the input mask, the scheduled finish and the actual
    #: completion of this replica's compute.
    mask_slot: int
    finish_slot: int
    done_slot: int
    #: record slot of the first completion of this replica's task when it is
    #: an exit task, ``0`` (never a valid exit slot) otherwise.
    exit_slot: int
    #: predecessor task -> its bit in the input mask (fixed at construction;
    #: empty for entry replicas, which need no inputs).
    pred_bit: dict[str, int] = field(default_factory=dict)
    #: value of the input mask once every input is in.
    full_mask: int = 0
    #: outgoing communications: ``(link, transfer duration, destination
    #: processor)`` where ``link = (destination state, destination's bit for
    #: this replica's task, destination processor, source processor)`` is the
    #: shared operand of the transfer-arrival events — resolved once at
    #: construction so the hot loop never looks anything up by name.
    links: list = field(default_factory=list)


def _check_instant(value, name: str) -> None:
    """Reject a NaN, infinite or negative admission instant."""
    if not 0.0 <= value < math.inf:
        raise ScheduleError(f"{name} must be a finite number >= 0, got {value!r}")


class PipelineKernel:
    """Discrete-event executor of one schedule under one (mutable) crash set."""

    def __init__(
        self,
        schedule: Schedule,
        failed: Iterable[str] = (),
        probe=None,
    ):
        """*failed* processors are down from the start; every exit task must
        keep a valid replica under them.  *probe* is an optional
        :class:`repro.obs.probe.Probe`: per-kind event counts are accumulated
        in a local list and flushed once per drain, so a ``None`` probe costs
        a single pointer comparison per event."""
        if not schedule.is_complete():
            raise ScheduleError("cannot simulate an incomplete schedule")
        failed = frozenset(failed)
        graph = schedule.graph
        valid = valid_replicas_under_failures(schedule, failed)
        for task in graph.exit_tasks():
            if not valid[task]:
                raise ScheduleError(
                    f"exit task {task!r} has no valid replica under scenario "
                    f"CrashScenario({sorted(failed)})"
                )
        self.schedule = schedule
        self.graph = graph
        valid_set = {r for reps in valid.values() for r in reps}
        names = schedule.platform.processor_names
        self._proc_index = {name: i for i, name in enumerate(names)}
        exit_tasks = graph.exit_tasks()

        replicas = [r for r in schedule.all_replicas() if r in valid_set]
        #: exit task -> record slot of its first completion (after the
        #: three slots of every replica)
        exits_at = _HEADER + 3 * len(replicas)
        self._exit_slot = {task: exits_at + k for k, task in enumerate(exit_tasks)}
        by_replica: dict[Replica, _ReplicaRun] = {}
        for index, replica in enumerate(replicas):
            preds = graph.predecessors(replica.task)
            slot = _HEADER + 3 * index
            by_replica[replica] = _ReplicaRun(
                replica=replica,
                index=index,
                proc=self._proc_index[schedule.processor_of(replica)],
                duration=schedule.execution_time_of(replica),
                mask_slot=slot,
                finish_slot=slot + 1,
                done_slot=slot + 2,
                exit_slot=self._exit_slot.get(replica.task, 0),
                pred_bit={pred: 1 << i for i, pred in enumerate(preds)},
                full_mask=(1 << len(preds)) - 1,
            )
        self._states: list[_ReplicaRun] = list(by_replica.values())
        self._entry_states = [s for s in self._states if not s.pred_bit]
        self._n_exits = len(exit_tasks)
        #: the record of a freshly admitted data set (copied per admission)
        self._template: list = (
            [0, 0, -1, 0.0, None] + [0, None, None] * len(self._states)
            + [None] * len(exit_tasks)
        )

        # communications between valid replicas only, resolved to run states
        # (including the receiver's input bit for the sender's task)
        for event in schedule.comm_events:
            src = by_replica.get(event.source)
            dst = by_replica.get(event.destination)
            if src is not None and dst is not None:
                link = (dst, dst.pred_bit[event.source.task], dst.proc, src.proc)
                src.links.append((link, event.duration, dst.proc))

        self._compute_free: list[float] = [0.0] * len(names)
        self._out_free: list[float] = [0.0] * len(names)
        self._in_free: list[float] = [0.0] * len(names)

        self._dead: set[int] = set()  # processors crashed *after* construction
        #: the event heap (module docstring) and the last sequence number drawn
        self._heap: list[tuple] = []
        self._seq = 0
        #: the sequence numbers :meth:`reserve` drew ahead for :meth:`admit`:
        #: the next one to hand out and the end of the range
        self._reserved = self._reserved_end = 0
        self._now = 0.0
        #: data-set index -> record, in admission order
        self._live: dict[int, list] = {}
        self._fresh: list[tuple[int, float]] = []  # completions since last drain
        self._evicted = 0
        self._max_evicted = -1  # highest retired index: re-admission guard
        self._peak_live = 0
        self._probe = probe

    # ------------------------------------------------------------------ queries
    @property
    def now(self) -> float:
        """Simulation clock (time of the last processed event)."""
        return self._now

    def completion_of(self, dataset: int) -> float | None:
        """Completion instant of *dataset* while its record is live (``None``
        while in flight, and once it has been evicted)."""
        rec = self._live.get(dataset)
        return None if rec is None else rec[_COMPLETION]

    def pending_datasets(self) -> tuple[int, ...]:
        """Admitted data sets that have not completed yet, in admission order."""
        return tuple(j for j, rec in self._live.items() if rec[_COMPLETION] is None)

    @property
    def live_datasets(self) -> int:
        """Data sets currently holding kernel state (admitted, not evicted)."""
        return len(self._live)

    @property
    def evicted_datasets(self) -> int:
        """Data sets whose state has been retired at their watermark."""
        return self._evicted

    @property
    def peak_live_datasets(self) -> int:
        """High-water mark of :attr:`live_datasets` over the run so far."""
        return max(self._peak_live, len(self._live))

    def completed_tasks(self, dataset: int) -> frozenset[str]:
        """Tasks whose output for *dataset* has actually been produced.

        This is the checkpoint of the data set: every task here has at least
        one replica that finished computing (or whose output was restored from
        a previous checkpoint), so its output is in stable storage and can be
        replayed into a rebuilt schedule with :meth:`admit_restored`.
        """
        rec = self._live.get(dataset)
        if rec is None:
            return frozenset()
        return frozenset(
            s.replica.task for s in self._states if rec[s.done_slot] is not None
        )

    # ---------------------------------------------------------------- admission
    def reserve(self, count: int) -> None:
        """Draw the sequence numbers of the next *count* :meth:`admit` calls now.

        Those admissions take consecutive numbers from this point of the
        sequence counter, so each of their releases wins every same-instant
        tie against an event pushed after this call, however late the
        release itself is admitted: a stream admitted window by window then
        pops tie for tie like the same stream admitted here in one go.  A
        later call discards what is left of an earlier reservation.
        """
        seq = self._seq + 1
        self._seq += count
        self._reserved, self._reserved_end = seq, seq + count

    def admit(self, dataset: int, release: float) -> None:
        """Admit one data set: entry replicas receive it at *release*."""
        _check_instant(release, "release")
        rec = self._register(dataset, release)
        rec[_REFS] = 1
        seq = self._reserved
        if seq < self._reserved_end:
            self._reserved = seq + 1
        else:
            self._seq = seq = self._seq + 1
        heapq.heappush(self._heap, (release, seq, _RELEASE_ALL, None, rec))

    def admit_batch(self, releases: Sequence[float]) -> None:
        """Admit data sets ``0, 1, ...`` released at *releases*, up front.

        Release events are pushed replica-major — for each entry replica, all
        data sets in order — the historical push order of the offline
        simulator; same-instant ties therefore resolve exactly as they
        always did.
        """
        for k, release in enumerate(releases):
            _check_instant(release, f"releases[{k}]")
        records = [self._register(j, t) for j, t in enumerate(releases)]
        # entry replica e draws the sequence numbers seq + e·n + k for its
        # k-th record, exactly what a push loop in that order would draw
        entries = self._entry_states
        heap = self._heap
        seq, n = self._seq + 1, len(records)
        for rec in records:
            rec[_REFS] = len(entries)
        for e, state in enumerate(entries):
            heap.extend(
                (t, seq + e * n + k, _RELEASE, state, rec)
                for k, (t, rec) in enumerate(zip(releases, records))
            )
        self._seq += len(entries) * n
        heapq.heapify(heap)

    def admit_restored(
        self, dataset: int, restore: float, done_tasks: Iterable[str] = ()
    ) -> None:
        """Admit a data set whose *done_tasks* outputs come from a checkpoint.

        Restored outputs are delivered to every consumer at *restore* with no
        transfer cost; replicas of restored tasks never recompute.  Replicas
        whose inputs are fully satisfied by the checkpoint (including entry
        replicas of non-restored tasks) are kicked at *restore*.
        """
        _check_instant(restore, "restore")
        done = frozenset(done_tasks)
        rec = self._register(dataset, restore)
        for task in done:
            slot = self._exit_slot.get(task)
            if slot is not None:
                rec[slot] = restore
                rec[_EXITS] += 1
        if rec[_EXITS] == self._n_exits:
            rec[_COMPLETION] = restore
            self._fresh.append((dataset, restore))
            self._retire(dataset)
            return
        for state in self._states:
            if state.replica.task in done:
                rec[state.finish_slot] = restore
                rec[state.done_slot] = restore
                continue
            if state.pred_bit:
                bits = rec[state.mask_slot]
                for task in done.intersection(state.pred_bit):
                    bits |= state.pred_bit[task]
                rec[state.mask_slot] = bits
                if bits != state.full_mask:
                    continue
            rec[_REFS] += 1
            self._seq += 1
            heapq.heappush(self._heap, (restore, self._seq, _RELEASE, state, rec))

    def _register(self, dataset: int, release: float) -> list:
        """The fresh record of *dataset*, registered as live."""
        if dataset in self._live or dataset <= self._max_evicted:
            # a retired index left no record to collide with, but the
            # eviction watermark (indices are admitted in increasing order
            # by every driver) still catches the reuse
            raise ScheduleError(f"data set {dataset} was already admitted")
        rec = self._template.copy()
        rec[_INDEX] = dataset
        rec[_RELEASED] = release
        self._live[dataset] = rec
        return rec

    def _retire(self, dataset: int) -> None:
        """Evict the record of a completed, quiescent data set (watermark)."""
        del self._live[dataset]
        self._evicted += 1
        if dataset > self._max_evicted:
            self._max_evicted = dataset

    # ----------------------------------------------------------------- failures
    def crash(self, processor: str) -> None:
        """Mark *processor* dead from now on (fail-stop, see module docstring).

        Pending events touching the processor are cancelled lazily when they
        surface; call :meth:`run_until` with the crash instant *before* this so
        that operations finishing at or before the crash still count.  A
        processor outside the schedule's platform hosts nothing here and is
        ignored.
        """
        index = self._proc_index.get(processor)
        if index is not None:
            self._dead.add(index)

    # ---------------------------------------------------------------- execution
    def run_until(self, time: float) -> list[tuple[int, float]]:
        """Process every event up to and including *time*; return completions.

        The returned list holds ``(dataset, completion_instant)`` pairs for
        every data set that completed since the previous drain, in completion
        order.
        """
        self._run_loop(time)
        return self._drain()

    def run_to_completion(self) -> list[tuple[int, float]]:
        """Process every pending event; return the completions since last drain."""
        self._run_loop(math.inf)
        return self._drain()

    def _run_loop(self, limit: float) -> None:
        """The hot loop: pop and dispatch events up to *limit*.

        One flat function, everything in locals: the event arithmetic is a
        few list operations per event, so per-event *dispatch* cost — method
        calls, attribute loads, allocations — dominates.  Every entry is one
        flat 5-tuple ``(time, seq, kind, operand, record)`` unpacked in a
        single step; the record is a list indexed by the replica's fixed
        slots, so an event touches no dictionary.  Pushes go through
        ``heapq.heappush`` directly (the sequence counter is a local,
        written back on exit), except those due at the current instant,
        which go to the ``due`` FIFO (module docstring) and draw no number.

        The eviction watermark settles after each event: the popped event
        releases one reference, every push takes one, and a completed
        record whose count reaches zero is dropped from the live dict.  A
        transfer arrival that starts a compute releases and takes one, so
        it skips the book-keeping.
        """
        heap = self._heap
        pop = heapq.heappop
        push = heapq.heappush
        count = self._seq
        dead = self._dead
        compute_free = self._compute_free
        out_free = self._out_free
        in_free = self._in_free
        n_exits = self._n_exits
        fresh = self._fresh
        entry_states = self._entry_states
        retire = self._retire
        now = self._now
        probe = self._probe
        # events pushed at the current instant, in push order
        due = deque()
        due_append = due.append
        due_popleft = due.popleft
        # per-kind event tallies, flushed once at loop exit: with no probe
        # attached the loop pays exactly one `is None` check per event
        ev_counts = None if probe is None else [0, 0, 0, 0]
        if len(self._live) > self._peak_live:
            self._peak_live = len(self._live)

        while True:
            if due:
                # an entry pushed at the current instant pops after every
                # heap entry due then, and in push order
                if heap and heap[0][0] == now:
                    _, _, kind, operand, rec = pop(heap)
                else:
                    kind, operand, rec = due_popleft()
            elif heap:
                entry = pop(heap)
                time, _, kind, operand, rec = entry
                if time > limit:
                    push(heap, entry)  # same (time, seq): the pop order is unchanged
                    break
                now = time
            else:
                break
            if ev_counts is not None:
                ev_counts[kind] += 1
            pushed = 0
            if kind == _ARRIVED:
                dst, bit, dst_proc, src_proc = operand
                if not dead or (src_proc not in dead and dst_proc not in dead):
                    slot = dst.mask_slot
                    got = rec[slot]
                    new = got | bit
                    if new != got:
                        rec[slot] = new
                        if (
                            new == dst.full_mask
                            and rec[dst.finish_slot] is None
                            and dst_proc not in dead
                        ):
                            # every input is in: start the compute (inline —
                            # this is the single most frequent path); the
                            # record's reference passes to the new event
                            free = compute_free[dst_proc]
                            start = now if now > free else free
                            finish = start + dst.duration
                            compute_free[dst_proc] = finish
                            rec[dst.finish_slot] = finish
                            if finish == now:
                                due_append((_COMPUTED, dst, rec))
                            else:
                                count += 1
                                push(heap, (finish, count, _COMPUTED, dst, rec))
                            continue
                # else: the transfer was in flight when an endpoint died
            elif kind == _COMPUTED:
                src_proc = operand.proc
                if not dead or src_proc not in dead:
                    rec[operand.done_slot] = now
                    slot = operand.exit_slot
                    if slot and rec[slot] is None:
                        rec[slot] = now
                        exits = rec[_EXITS] + 1
                        rec[_EXITS] = exits
                        if exits == n_exits:
                            rec[_COMPLETION] = now
                            fresh.append((rec[_INDEX], now))
                    # forward the result along every recorded communication
                    for link, duration, dst_proc in operand.links:
                        if dead and dst_proc in dead:
                            continue  # no point sending to a dead receiver
                        pushed += 1
                        if duration == 0.0:
                            due_append((_ARRIVED, link, rec))
                            continue
                        start = out_free[src_proc]
                        if now > start:
                            start = now
                        free = in_free[dst_proc]
                        if free > start:
                            start = free
                        arrive = start + duration
                        out_free[src_proc] = arrive
                        in_free[dst_proc] = arrive
                        if arrive == now:
                            due_append((_ARRIVED, link, rec))
                        else:
                            count += 1
                            push(heap, (arrive, count, _ARRIVED, link, rec))
                # else: the processor died while this compute was in flight
            else:
                # _RELEASE kicks one entry replica (batch admission),
                # _RELEASE_ALL every entry replica in declaration order
                for state in entry_states if operand is None else (operand,):
                    proc = state.proc
                    if rec[state.finish_slot] is not None or proc in dead:
                        continue
                    if state.full_mask and rec[state.mask_slot] != state.full_mask:
                        continue
                    free = compute_free[proc]
                    start = now if now > free else free
                    finish = start + state.duration
                    compute_free[proc] = finish
                    rec[state.finish_slot] = finish
                    pushed += 1
                    if finish == now:
                        due_append((_COMPUTED, state, rec))
                    else:
                        count += 1
                        push(heap, (finish, count, _COMPUTED, state, rec))
            left = rec[_REFS] + pushed - 1
            rec[_REFS] = left
            if not left and rec[_COMPLETION] is not None:
                retire(rec[_INDEX])
        self._seq = count
        self._now = now
        if ev_counts is not None and any(ev_counts):
            probe.on_kernel_events(ev_counts, now)

    def _drain(self) -> list[tuple[int, float]]:
        fresh, self._fresh = self._fresh, []
        return fresh
