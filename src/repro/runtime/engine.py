"""The online streaming runtime: execute a schedule while processors fail.

:class:`OnlineRuntime` drives a :class:`~repro.schedule.schedule.Schedule`
over an open-ended stream while a :class:`~repro.failures.scenarios.FaultTrace`
injects crashes (and optionally repairs) mid-stream.  The control plane:

* data set ``j`` is released at ``j·Δ`` where ``Δ`` is the period of the
  *initial* schedule (the source rate never changes); an
  :class:`~repro.runtime.admission.AdmissionPolicy` decides the fate of every
  released data set (``shed`` drops what the pipeline cannot take, ``queue``
  buffers it through downtime and throttling);
* a crash that leaves every exit task with a valid replica — the active
  replication absorbing it — is **tolerated**: the stream continues on the
  surviving replicas at a degraded latency;
* a crash beyond the surviving guarantee (no valid exit replica, or more than
  ``ε`` crashes charged against the current schedule when
  ``rebuild_beyond_epsilon`` is set) triggers an **online rebuild**: the
  rescheduling policy (:mod:`repro.runtime.policies`) builds a new schedule on
  the survivors.  The rebuild takes ``rebuild_overhead·Δ`` time units of
  downtime;
* a rebuilt schedule may have a longer period (the survivors cannot sustain
  the source rate) or overloaded processors (remap policy) — the runtime then
  throttles admission to the achievable rate;
* repaired processors rejoin the candidate pool of the *next* rebuild (a
  processor lost its state when it crashed, so the current schedule never
  resurrects it); ``rebuild_on_repair=True`` additionally triggers an
  *anticipatory* rebuild — but only after a speculative reschedule shows the
  repaired processor actually improves the achievable period or the
  resilience margin, so repairs that change nothing no longer cost downtime;
* when no schedule can be built on the survivors the stream **aborts** and
  every remaining data set is lost.

The data plane is the shared simulation kernel
(:class:`repro.sim.kernel.PipelineKernel`), executed **incrementally**: one
kernel carries compute/transfer state across fault events.  A tolerated crash
cancels the dead processor's operations in place (no pipeline restart, no
re-paid warm-up), and a rebuild *checkpoints* the in-flight data sets: their
completed per-task outputs are replayed into a fresh kernel built on the new
schedule, so partial work survives the rebuild.  Processors listed in the
fault trace's ``initially_down`` set are down from the start: the ones the
schedule uses are charged against it like crashes.

The resulting :class:`~repro.runtime.trace.RuntimeTrace` is a pure function of
``(schedule, fault_trace, options)``: two runs with the same inputs produce
equal traces.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Iterable

from repro.exceptions import ScheduleError, SchedulingError
from repro.failures.scenarios import FaultEvent, FaultTrace
from repro.runtime.admission import ADMIT, DROP, AdmissionPolicy, resolve_admission
from repro.runtime.policies import ReschedulePolicy, resolve_policy
from repro.runtime.trace import DatasetRecord, RuntimeEvent, RuntimeTrace
from repro.schedule.schedule import Schedule
from repro.schedule.validation import valid_replicas_under_failures
from repro.sim.kernel import PipelineKernel
from repro.utils.checks import check_count, check_non_negative
from repro.utils.gcpause import gc_paused

__all__ = ["OnlineRuntime"]

_INF = float("inf")

#: data sets admitted per control-loop pass.  Without a cap the zero-fault
#: stream is admitted in one go and the kernel heap holds every release event
#: of the stream at once — on 10⁵-dataset streams the heap's log factor (and
#: its memory) then grows with the stream instead of the pipeline depth.  A
#: small window keeps the heap to what is in flight: on the 30-task ε=1
#: stream-replicated passes a window of 256 left 51% of heap pops on a heap
#: of more than 112 entries (peak 303), a window of 16 leaves 96% on at most
#: 48 (peak 62).  Pass time against a window of 256 (interleaved in-process
#: A/B, 8 fault seeds × 4 rounds, shared 2-core Xeon, CPython 3.11.7): 0.96
#: at 64, 0.92 at 16, 0.90 at 4 — below 16 the gain is small and the
#: control-loop passes (release scan, drain, gauges) multiply.
#: The window is control-flow only — the admission policy sees the same
#: ``on_release`` calls in the same order with the same arguments, and the
#: kernel pops the same events in the same order: a window boundary runs it
#: to just below the boundary's release, and every release of a control
#: segment (the stretch up to the next fault or rebuild event) takes a
#: sequence number reserved at the segment's start, so it wins the same
#: same-instant ties as when the whole segment is admitted at once.  Traces
#: are therefore bit-identical for any window size.
_ADMIT_WINDOW = 16


def _effective_period(schedule: Schedule) -> float:
    """Admission spacing of *schedule*: its period, or its real cycle time when
    the mapping is overloaded (remap fallback after heavy failures)."""
    if schedule.max_cycle_time <= schedule.period * (1 + 1e-6):
        return schedule.period
    return schedule.max_cycle_time


class OnlineRuntime:
    """Discrete-event online executor (see module docstring)."""

    def __init__(
        self,
        schedule: Schedule,
        fault_trace: FaultTrace | Iterable[FaultEvent],
        policy: str | ReschedulePolicy = "rltf",
        rebuild_overhead: float = 1.0,
        rebuild_beyond_epsilon: bool = True,
        rebuild_on_repair: bool = False,
        admission: str | AdmissionPolicy = "shed",
        checkpoint: bool = True,
        probe=None,
        fast_forward: bool = True,
        platform=None,
    ):
        """*platform* widens the rebuild candidate pool beyond
        ``schedule.platform`` (elastic regimes: spare processors that start
        outside the schedule and *join* mid-stream).  Pool members absent
        from the schedule's platform start dead until a join event brings
        them up.  ``None`` (default) keeps the pool equal to the schedule's
        platform — bit-identical to the historical behaviour.

        *checkpoint* and *fast_forward* only accept ``True``:
        checkpoint/restart is the one data plane and every data set runs
        through the event loop (the parameters stay so that callers passing
        a spec's ``runtime.checkpoint`` / ``runtime.fast_forward`` keep
        working)."""
        if not schedule.is_complete():
            raise ScheduleError("cannot run an incomplete schedule online")
        if checkpoint is not True:
            raise ValueError(
                f"checkpoint must be True (checkpoint/restart is the only "
                f"execution mode), got {checkpoint!r}"
            )
        if fast_forward is not True:
            raise ValueError(
                f"fast_forward must be True (every stream runs the event "
                f"loop), got {fast_forward!r}"
            )
        rebuild_overhead = check_non_negative(rebuild_overhead, "rebuild_overhead")
        if platform is not None:
            missing = [n for n in schedule.platform.processor_names if n not in platform]
            if missing:
                raise ScheduleError(
                    f"schedule processors {missing} are not in the runtime "
                    f"platform pool"
                )
        if not isinstance(fault_trace, FaultTrace):
            events = tuple(fault_trace)
            horizon = max([e.time for e in events], default=0.0) + schedule.period
            fault_trace = FaultTrace(events=events, horizon=max(horizon, schedule.period))
        self.schedule = schedule
        self.platform = platform
        self.fault_trace = fault_trace
        self.policy = resolve_policy(policy)
        self.admission = resolve_admission(admission)
        self.rebuild_overhead = rebuild_overhead
        self.rebuild_beyond_epsilon = bool(rebuild_beyond_epsilon)
        self.rebuild_on_repair = bool(rebuild_on_repair)
        #: optional :class:`repro.obs.probe.Probe`; ``None`` costs one pointer
        #: comparison at each instrumented site (see docs/observability.md)
        self.probe = probe

    # ---------------------------------------------------------------- execution
    def run(self, num_datasets: int = 100) -> RuntimeTrace:
        """Stream *num_datasets* consecutive data sets through the fault trace."""
        num_datasets = check_count(num_datasets, "num_datasets")
        # The run allocates millions of acyclic objects and the cyclic GC's
        # scans grow with the accumulated stream history; pausing it keeps
        # per-dataset cost flat (see repro.utils.gcpause).
        with gc_paused():
            return self._run(num_datasets)

    def _run(self, num_datasets: int) -> RuntimeTrace:
        initial = self.schedule
        graph = initial.graph
        platform0 = self.platform if self.platform is not None else initial.platform
        period = initial.period
        tol = 1e-9 * period
        horizon = num_datasets * period
        releases = [j * period for j in range(num_datasets)]
        fault_events = [e for e in self.fault_trace.events if e.time < horizon]

        # records accumulate as plain (index, release, completion, status)
        # tuples during the run: CPython untracks tuples of atomics, so the
        # cyclic GC's full collections skip the stream history instead of
        # rescanning it (on 10⁵-dataset streams that rescan is what turns
        # per-dataset cost super-linear).  The DatasetRecord objects are
        # materialized once, at trace construction.
        records: list[tuple | None] = [None] * num_datasets
        log: list[RuntimeEvent] = []
        admission = self.admission
        admission.reset()
        probe = self.probe

        # --- mutable runtime state
        schedule: Schedule | None = initial
        used: frozenset[str] = frozenset(initial.used_processors())
        # globally down processors (repairs/joins remove): pool members not
        # yet in the schedule's platform (elastic spares) start dead, as do
        # the trace's initially_down processors.
        dead: set[str] = {
            n for n in platform0.processor_names if n not in initial.platform
        } | set(self.fault_trace.initially_down)
        # failures charged against `schedule`: initially-down processors it
        # uses count from the start, like crashes at time 0
        failed_cur: set[str] = dead & used
        # the data plane: one kernel across fault events (None mid-rebuild
        # and after an abort), and the checkpointed task outputs of the data
        # sets in flight when a rebuild started
        kernel: PipelineKernel | None = PipelineKernel(initial, failed_cur, probe=probe)
        ckpt: dict[int, frozenset[str]] = {}
        next_j = 0  # next dataset index to place
        next_slot = 0.0  # earliest admission instant (one per effective period)
        admit_period = _effective_period(initial)
        rebuilding = False
        rebuild_done = _INF
        down_since: float | None = None
        downtime = 0.0
        rebuilds = 0
        aborted = False
        abort_time = _INF
        pending: dict[int, float] = {}  # admitted, in flight: dataset -> release

        def record_completions(completions) -> None:
            for j, t in completions:
                r = pending.pop(j)
                records[j] = (j, r, t, "completed")
                if probe is not None:
                    probe.on_dataset(j, r, t, "completed")

        def lose(j: int, r: float, status: str) -> None:
            records[j] = (j, r, None, status)
            if probe is not None:
                probe.on_dataset(j, r, None, status)

        def note(event: RuntimeEvent) -> None:
            log.append(event)
            if probe is not None:
                probe.on_runtime_event(event)

        def admit(j: int, release: float, admit_time: float) -> None:
            nonlocal next_slot
            pending[j] = release
            kernel.admit(j, admit_time)
            next_slot = admit_time + admit_period

        def scan_releases(end: float) -> None:
            """Decide the fate of data sets released before *end*."""
            nonlocal next_j
            while next_j < num_datasets and releases[next_j] < end - tol:
                j, r = next_j, releases[next_j]
                next_j += 1
                if aborted:
                    lose(j, r, "lost-abort")
                    continue
                verb, arg = admission.on_release(
                    j,
                    r,
                    rebuilding=rebuilding,
                    next_slot=next_slot,
                    admit_period=admit_period,
                    tol=tol,
                )
                if verb == DROP:
                    lose(j, r, arg)
                elif verb == ADMIT:
                    admit(j, r, arg)
                # "defer": buffered inside the admission policy

        def drain_admission() -> None:
            for j, r in admission.drain():
                admit(j, r, max(r, next_slot))

        def start_rebuild(now: float, kind: str, processor: str | None) -> None:
            nonlocal rebuilding, rebuild_done, down_since, kernel
            rebuilding = True
            down_since = now
            rebuild_done = now + self.rebuild_overhead * period
            note(RuntimeEvent(now, kind, processor))
            # Checkpoint the in-flight data sets and abandon the dead
            # pipeline: every task output produced so far is in stable
            # storage and is replayed into the rebuilt schedule.
            for j in pending:
                ckpt[j] = kernel.completed_tasks(j)
            kernel = None

        def abort(now: float, reason: str) -> None:
            nonlocal aborted, schedule, abort_time, kernel
            aborted = True
            schedule = None
            abort_time = now
            note(RuntimeEvent(now, "abort", None, reason))
            kernel = None
            ckpt.clear()
            for j, r in admission.drain():
                lose(j, r, "lost-abort")
            for j, r in pending.items():
                lose(j, r, "lost-abort")
            pending.clear()

        i = 0
        segment_start = True
        while True:
            next_fault = fault_events[i].time if i < len(fault_events) else _INF
            now = segment_end = min(next_fault, rebuild_done, horizon)
            if segment_start and kernel is not None:
                # one sequence number per release of the control segment
                kernel.reserve(
                    bisect_left(releases, segment_end - tol, next_j) - next_j
                )
            segment_start = False
            if next_j + _ADMIT_WINDOW < num_datasets:
                now = min(now, releases[next_j + _ADMIT_WINDOW])
            scan_releases(now)
            if now >= horizon:
                break  # the final drain runs the kernel to completion
            window_only = now < segment_end
            if kernel is not None:
                # a window boundary stops below its release, which the
                # next pass admits ahead of every event at that instant
                limit = math.nextafter(now, -_INF) if window_only else now
                record_completions(kernel.run_until(limit))
                if probe is not None:
                    probe.on_gauges(now, kernel.live_datasets, kernel.evicted_datasets)
            if window_only:
                continue  # window boundary only: admit + advance, no control event
            segment_start = True
            if kernel is not None:
                kernel.reserve(0)  # drop the rest before any drain or restore

            if rebuilding and rebuild_done <= next_fault:
                # ------------------------------------------------ rebuild done
                rebuilding = False
                rebuild_done = _INF
                downtime += now - down_since
                if probe is not None:
                    probe.on_span("rebuild", down_since, now)
                down_since = None
                rebuilds += 1
                survivors = [p for p in platform0.processor_names if p not in dead]
                if not survivors:
                    abort(now, "no surviving processor")
                else:
                    target_eps = min(initial.epsilon, len(survivors) - 1)
                    try:
                        schedule = self.policy.reschedule(
                            graph,
                            platform0.subset(survivors),
                            period,
                            target_eps,
                            previous=schedule or initial,
                        )
                    except SchedulingError as exc:
                        abort(now, f"reschedule failed: {exc}")
                    else:
                        used = frozenset(schedule.used_processors())
                        failed_cur = set()
                        admit_period = _effective_period(schedule)
                        next_slot = now
                        kernel = PipelineKernel(schedule, probe=probe)
                        for j in pending:
                            kernel.admit_restored(j, now, ckpt.pop(j, ()))
                        drain_admission()
                        note(
                            RuntimeEvent(
                                now,
                                "rebuild-complete",
                                None,
                                f"{len(survivors)} survivors, epsilon={schedule.epsilon}, "
                                f"period={schedule.period:g}",
                            )
                        )
                continue

            event = fault_events[i]
            i += 1
            if event.is_crash:
                if event.processor in dead:
                    continue
                dead.add(event.processor)
                if aborted:
                    continue
                if rebuilding:
                    # Restart the rebuild clock: the survivor set just changed.
                    rebuild_done = now + self.rebuild_overhead * period
                    note(RuntimeEvent(now, "crash-during-rebuild", event.processor))
                    continue
                if event.processor not in used:
                    note(RuntimeEvent(now, "crash-unused", event.processor))
                    continue
                failed_cur.add(event.processor)
                valid = valid_replicas_under_failures(schedule, failed_cur)
                survives = all(valid[t] for t in graph.exit_tasks())
                within_guarantee = len(failed_cur) <= schedule.epsilon
                if survives and (within_guarantee or not self.rebuild_beyond_epsilon):
                    note(
                        RuntimeEvent(
                            now,
                            "crash-tolerated",
                            event.processor,
                            f"{len(failed_cur)}/{schedule.epsilon} crashes absorbed",
                        )
                    )
                    kernel.crash(event.processor)
                else:
                    start_rebuild(now, "crash-rebuild", event.processor)
            elif event.is_join:
                # A join adds capacity (an elastic spare, or a preempted spot
                # node returning): unlike a repair it always probes whether a
                # rebuild onto the enlarged platform pays for its downtime —
                # even when the current schedule is not degraded.
                dead.discard(event.processor)
                note(RuntimeEvent(now, "join", event.processor))
                if not rebuilding and not aborted:
                    improves, why = self._repair_improves(
                        schedule, failed_cur, admit_period, dead, graph, platform0,
                        period, initial, require_degraded=False,
                    )
                    if improves:
                        start_rebuild(now, "join-rebuild", event.processor)
                    else:
                        note(
                            RuntimeEvent(now, "join-rebuild-skipped", event.processor, why)
                        )
            else:  # repair
                dead.discard(event.processor)
                note(RuntimeEvent(now, "repair", event.processor))
                if self.rebuild_on_repair and not rebuilding and not aborted:
                    improves, why = self._repair_improves(
                        schedule, failed_cur, admit_period, dead, graph, platform0,
                        period, initial,
                    )
                    if improves:
                        start_rebuild(now, "repair-rebuild", event.processor)
                    else:
                        note(
                            RuntimeEvent(now, "repair-rebuild-skipped", event.processor, why)
                        )

        if rebuilding and down_since is not None:
            downtime += horizon - down_since
            if probe is not None:
                probe.on_span("rebuild", down_since, horizon)
        if aborted and abort_time < horizon:
            # An aborted stream accepts nothing for the rest of the horizon.
            downtime += horizon - abort_time
            if probe is not None:
                probe.on_span("abort", abort_time, horizon)

        if kernel is not None:
            record_completions(kernel.run_to_completion())
            if probe is not None:
                probe.on_gauges(horizon, kernel.live_datasets, kernel.evicted_datasets)
        if pending:
            # The data plane was abandoned mid-rebuild and the horizon ended
            # before a new schedule could replay the checkpointed data sets.
            for j, r in pending.items():
                lose(j, r, "lost-downtime")
            pending.clear()
        for j, r in admission.drain():
            lose(j, r, "lost-downtime")

        assert all(r is not None for r in records)
        return RuntimeTrace(
            records=tuple(DatasetRecord(*r) for r in records),
            events=tuple(log),
            period=period,
            horizon=horizon,
            num_rebuilds=rebuilds,
            downtime=downtime,
            aborted=aborted,
            final_alive=tuple(p for p in platform0.processor_names if p not in dead),
            policy=self.policy.name,
            admission=admission.name,
        )

    # ------------------------------------------------------------- repair probe
    def _repair_improves(
        self, schedule, failed_cur, admit_period, dead, graph, platform0, period, initial,
        require_degraded: bool = True,
    ) -> tuple[bool, str]:
        """Anticipatory ``rebuild_on_repair`` probe: is a rebuild worth downtime?

        Runs the rescheduling policy *speculatively* (no downtime charged) on
        the repaired platform and commits to a real rebuild only when the
        candidate improves the achievable admission period or the resilience
        margin left by the crashes charged against the current schedule.

        With ``require_degraded=False`` (join events) the speculative
        reschedule runs even when the current schedule is healthy — added
        capacity can still shorten the achievable period.
        """
        degraded = (
            bool(failed_cur)
            or admit_period > period * (1 + 1e-6)
            or schedule.epsilon < initial.epsilon
        )
        if require_degraded and not degraded:
            return False, "current schedule already meets the original period and resilience"
        survivors = [p for p in platform0.processor_names if p not in dead]
        target_eps = min(initial.epsilon, len(survivors) - 1)
        try:
            candidate = self.policy.reschedule(
                graph, platform0.subset(survivors), period, target_eps, previous=schedule
            )
        except SchedulingError:
            return False, "no feasible schedule on the repaired platform"
        cand_period = _effective_period(candidate)
        margin = schedule.epsilon - len(failed_cur)
        if cand_period < admit_period * (1 - 1e-9):
            return True, f"period {admit_period:g} -> {cand_period:g}"
        if cand_period <= admit_period * (1 + 1e-9) and candidate.epsilon > margin:
            return True, f"resilience margin {margin} -> {candidate.epsilon}"
        return False, "candidate schedule is no better than the current one"
