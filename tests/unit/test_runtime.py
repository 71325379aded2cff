"""Unit tests for the online runtime: fault traces, policies, engine, traces, CLI."""

import math

import pytest
from conftest import batch_completions, completions, offline_run

from repro.cli import main
from repro.core.ltf import ltf_schedule
from repro.core.rltf import rltf_schedule
from repro.exceptions import ScheduleError, SchedulingError
from repro.experiments.config import ExperimentConfig, workload_period
from repro.failures.scenarios import FaultEvent, FaultTrace, sample_fault_trace
from repro.graph.examples import figure2_graph
from repro.graph.generator import fork_join_graph, random_paper_workload
from repro.platform.builders import figure2_platform, homogeneous_platform
from repro.runtime.admission import (
    ADMISSION_POLICIES,
    QueueAdmissionPolicy,
    ShedAdmissionPolicy,
    resolve_admission,
)
from repro.runtime.engine import OnlineRuntime
from repro.scenario import ScenarioSpec
from repro.scenario.run import run_scenario_online
from repro.runtime.policies import (
    RESCHEDULE_POLICIES,
    RemapReschedulePolicy,
    RLTFReschedulePolicy,
    resolve_policy,
)
from repro.runtime.trace import DatasetRecord, RuntimeTrace, summarize_traces
from repro.schedule.schedule import Schedule
from repro.service.models import trace_fingerprint


@pytest.fixture
def replicated(fig2, fig2_platform) -> Schedule:
    """Figure 2 workflow on 10 processors, ε = 1, Δ = 20."""
    return ltf_schedule(fig2, fig2_platform, throughput=0.05, epsilon=1)


def empty_trace(schedule: Schedule, num_datasets: int) -> FaultTrace:
    return FaultTrace((), horizon=num_datasets * schedule.period)


# -------------------------------------------------------------- fault traces
class TestFaultTrace:
    def test_events_are_sorted(self):
        events = (
            FaultEvent(5.0, "P2", "crash"),
            FaultEvent(1.0, "P1", "crash"),
            FaultEvent(3.0, "P1", "repair"),
        )
        trace = FaultTrace(events, horizon=10.0)
        assert [e.time for e in trace] == [1.0, 3.0, 5.0]
        assert trace.num_crashes == 2
        assert trace.crashed_processors == {"P1", "P2"}

    def test_failed_at_tracks_repairs(self):
        trace = FaultTrace(
            (
                FaultEvent(1.0, "P1", "crash"),
                FaultEvent(3.0, "P1", "repair"),
                FaultEvent(4.0, "P2", "crash"),
            ),
            horizon=10.0,
        )
        assert trace.failed_at(0.5) == frozenset()
        assert trace.failed_at(2.0) == {"P1"}
        assert trace.failed_at(5.0) == {"P2"}

    def test_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(1.0, "P1", "explode")
        with pytest.raises(ValueError):
            FaultEvent(-1.0, "P1", "crash")

    def test_sampling_is_deterministic(self, fig2_platform):
        a = sample_fault_trace(fig2_platform, horizon=100.0, mttf=50.0, seed=3)
        b = sample_fault_trace(fig2_platform, horizon=100.0, mttf=50.0, seed=3)
        assert a == b

    def test_sampling_fail_stop_is_one_crash_per_processor(self, fig2_platform):
        trace = sample_fault_trace(fig2_platform, horizon=1e6, mttf=10.0, seed=0)
        names = [e.processor for e in trace.events]
        assert len(names) == len(set(names)) == fig2_platform.num_processors
        assert all(e.is_crash for e in trace.events)

    def test_sampling_with_repair_alternates(self, fig2_platform):
        trace = sample_fault_trace(
            fig2_platform, horizon=1000.0, mttf=10.0, mttr=5.0, seed=1
        )
        per_proc: dict[str, list[str]] = {}
        for e in trace.events:
            per_proc.setdefault(e.processor, []).append(e.kind)
        for kinds in per_proc.values():
            for first, second in zip(kinds, kinds[1:]):
                assert first != second  # crash/repair strictly alternate
        assert trace.num_crashes > fig2_platform.num_processors

    def test_weibull_distribution_supported(self, fig2_platform):
        trace = sample_fault_trace(
            fig2_platform, horizon=100.0, mttf=50.0, distribution="weibull", shape=2.0, seed=0
        )
        assert all(0 <= e.time < 100.0 for e in trace.events)

    def test_sampling_validation(self, fig2_platform):
        with pytest.raises(ValueError):
            sample_fault_trace(fig2_platform, horizon=-1.0, mttf=10.0)
        with pytest.raises(ValueError):
            sample_fault_trace(fig2_platform, horizon=10.0, mttf=10.0, distribution="zipf")


# -------------------------------------------------------------------- policies
class TestPolicies:
    def test_registry_and_resolution(self):
        assert set(RESCHEDULE_POLICIES) == {"rltf", "remap"}
        assert resolve_policy("rltf").name == "rltf"
        policy = RemapReschedulePolicy()
        assert resolve_policy(policy) is policy
        with pytest.raises(ValueError):
            resolve_policy("nope")
        with pytest.raises(TypeError):
            resolve_policy(42)

    def test_remap_replaces_dead_processors(self, replicated):
        victim = replicated.used_processors()[0]
        survivors = [p for p in replicated.platform.processor_names if p != victim]
        sub = replicated.platform.subset(survivors)
        rebuilt = RemapReschedulePolicy().reschedule(
            replicated.graph, sub, replicated.period, replicated.epsilon, replicated
        )
        assert rebuilt.is_complete()
        assert victim not in rebuilt.used_processors()
        # remap never rejects: it may overload survivors (the runtime then
        # throttles admission), so only the structural invariants must hold.
        for task in rebuilt.graph.task_names:
            procs = rebuilt.processors_of_task(task)
            assert len(set(procs)) == len(procs) == rebuilt.replication_factor

    def test_remap_needs_a_previous_schedule(self, replicated):
        with pytest.raises(SchedulingError):
            RemapReschedulePolicy().reschedule(
                replicated.graph, replicated.platform, replicated.period, 1
            )

    def test_rltf_policy_degrades_epsilon_on_small_platforms(self, replicated):
        survivors = replicated.platform.processor_names[:2]
        sub = replicated.platform.subset(survivors)
        rebuilt = RLTFReschedulePolicy().reschedule(
            replicated.graph, sub, replicated.period, epsilon=5, previous=replicated
        )
        assert rebuilt.is_complete()
        assert rebuilt.epsilon <= 1

    def test_rltf_policy_validates_backoffs(self):
        with pytest.raises(ValueError):
            RLTFReschedulePolicy(period_backoffs=())
        with pytest.raises(ValueError):
            RLTFReschedulePolicy(period_backoffs=(0.5,))


# ------------------------------------------------------------------ admission
class TestAdmissionPolicies:
    def test_registry_and_resolution(self):
        assert set(ADMISSION_POLICIES) == {"shed", "queue"}
        assert resolve_admission("shed").name == "shed"
        policy = QueueAdmissionPolicy(capacity=None)
        assert resolve_admission(policy) is policy
        with pytest.raises(ValueError):
            resolve_admission("nope")
        with pytest.raises(TypeError):
            resolve_admission(42)
        with pytest.raises(ValueError):
            QueueAdmissionPolicy(capacity=0)

    def test_shed_decisions(self):
        shed = ShedAdmissionPolicy()
        common = dict(admit_period=1.0, tol=0.0)
        assert shed.on_release(0, 5.0, rebuilding=True, next_slot=0.0, **common) == (
            "drop", "lost-downtime",
        )
        assert shed.on_release(0, 5.0, rebuilding=False, next_slot=4.0, **common) == (
            "admit", 5.0,
        )
        assert shed.on_release(0, 5.0, rebuilding=False, next_slot=9.0, **common) == (
            "drop", "shed",
        )

    def test_queue_buffers_through_downtime(self):
        queue = QueueAdmissionPolicy(capacity=2)
        common = dict(rebuilding=True, next_slot=0.0, admit_period=1.0, tol=0.0)
        assert queue.on_release(0, 1.0, **common)[0] == "defer"
        assert queue.on_release(1, 2.0, **common)[0] == "defer"
        assert queue.on_release(2, 3.0, **common) == ("drop", "lost-overflow")
        assert queue.drain() == [(0, 1.0), (1, 2.0)]
        assert queue.drain() == []

    def test_queue_waits_for_the_next_slot_instead_of_shedding(self):
        queue = QueueAdmissionPolicy()
        verb, when = queue.on_release(
            0, 5.0, rebuilding=False, next_slot=9.0, admit_period=1.0, tol=0.0
        )
        assert (verb, when) == ("admit", 9.0)

    def test_queue_bounds_the_waiting_line_while_running(self):
        """The capacity applies to throttling backlog, not just downtime."""
        queue = QueueAdmissionPolicy(capacity=3)
        # 5 data sets are already waiting for their slot -> over capacity
        assert queue.on_release(
            0, 10.0, rebuilding=False, next_slot=15.0, admit_period=1.0, tol=0.0
        ) == ("drop", "lost-overflow")
        # 2 waiting -> fits
        assert queue.on_release(
            0, 13.0, rebuilding=False, next_slot=15.0, admit_period=1.0, tol=0.0
        ) == ("admit", 15.0)
        unbounded = QueueAdmissionPolicy(capacity=None)
        assert unbounded.on_release(
            0, 0.0, rebuilding=False, next_slot=1e9, admit_period=1.0, tol=0.0
        )[0] == "admit"

    def test_queue_admission_survives_a_rebuild_without_losses(self, replicated):
        p1, p2 = replicated.used_processors()[:2]
        period = replicated.period
        faults = FaultTrace(
            (
                FaultEvent(period * 5.5, p1, "crash"),
                FaultEvent(period * 12.5, p2, "crash"),
            ),
            horizon=40 * period,
        )
        shed = OnlineRuntime(replicated, faults, rebuild_overhead=2.0).run(40)
        queued = OnlineRuntime(
            replicated,
            faults,
            rebuild_overhead=2.0,
            admission=QueueAdmissionPolicy(capacity=None),
        ).run(40)
        assert shed.lost_by_reason().get("lost-downtime", 0) >= 1
        assert queued.lost_count == 0
        assert queued.completed_count == 40
        assert queued.admission == "queue"
        # exactly the data sets shed lost to downtime completed from the queue
        lost_in_shed = [r.index for r in shed.records if r.status == "lost-downtime"]
        assert all(queued.records[j].completed for j in lost_in_shed)

    def test_queue_backlog_survives_later_crashes(self, replicated):
        """Regression: drained backlog entries wait for future slots; a later
        coverage-destroying crash must still leave every data set with a
        recorded fate."""
        period = replicated.period
        used = replicated.used_processors()
        events = (
            FaultEvent(5.5 * period, used[0], "crash"),
            FaultEvent(12.5 * period, used[1], "crash"),
            FaultEvent(19.5 * period, used[2], "crash"),
        )
        faults = FaultTrace(events, horizon=60 * period)
        trace = OnlineRuntime(
            replicated,
            faults,
            rebuild_overhead=4.0,
            admission=QueueAdmissionPolicy(capacity=None),
        ).run(60)
        assert trace.num_datasets == 60
        assert trace.num_rebuilds >= 1
        assert all(r is not None for r in trace.records)

    def test_bounded_queue_overflows_to_lost_overflow(self, replicated):
        p1, p2 = replicated.used_processors()[:2]
        period = replicated.period
        faults = FaultTrace(
            (
                FaultEvent(period * 5.5, p1, "crash"),
                FaultEvent(period * 8.5, p2, "crash"),
            ),
            horizon=40 * period,
        )
        trace = OnlineRuntime(
            replicated,
            faults,
            rebuild_overhead=6.0,  # long downtime, tiny buffer
            admission=QueueAdmissionPolicy(capacity=1),
        ).run(40)
        lost = trace.lost_by_reason()
        assert lost.get("lost-overflow", 0) >= 1
        assert lost.get("lost-downtime", 0) == 0


# --------------------------------------------------------------------- engine
class TestOnlineRuntime:
    def test_zero_faults_matches_batch_reference(self, replicated):
        trace = OnlineRuntime(replicated, empty_trace(replicated, 20)).run(20)
        assert completions(trace) == batch_completions(replicated, 20)
        assert trace.achieved_period == offline_run(replicated, 20).achieved_period
        assert trace.completed_count == 20
        assert trace.num_rebuilds == 0 and trace.downtime == 0.0

    def test_crash_of_unused_processor_is_harmless(self, fig2, fig2_platform):
        # ε = 0 keeps several processors idle; killing one must not disturb
        # the stream (not even with a zero-tolerance schedule).
        schedule = ltf_schedule(fig2, fig2_platform, throughput=0.05, epsilon=0)
        unused = next(
            p
            for p in schedule.platform.processor_names
            if p not in schedule.used_processors()
        )
        faults = FaultTrace(
            (FaultEvent(schedule.period * 3.2, unused, "crash"),),
            horizon=20 * schedule.period,
        )
        trace = OnlineRuntime(schedule, faults).run(20)
        assert trace.completed_count == 20
        assert trace.num_rebuilds == 0
        assert trace.events_of_kind("crash-unused")

    def test_single_crash_is_tolerated_within_epsilon(self, replicated):
        victim = replicated.used_processors()[0]
        faults = FaultTrace(
            (FaultEvent(replicated.period * 5.5, victim, "crash"),),
            horizon=30 * replicated.period,
        )
        trace = OnlineRuntime(replicated, faults).run(30)
        assert trace.completed_count == 30
        assert trace.lost_count == 0
        assert trace.num_rebuilds == 0
        assert trace.events_of_kind("crash-tolerated")
        assert victim not in trace.final_alive

    def test_second_crash_triggers_rebuild_with_downtime(self, replicated):
        p1, p2 = replicated.used_processors()[:2]
        period = replicated.period
        faults = FaultTrace(
            (
                FaultEvent(period * 5.5, p1, "crash"),
                FaultEvent(period * 12.5, p2, "crash"),
            ),
            horizon=40 * period,
        )
        trace = OnlineRuntime(replicated, faults, rebuild_overhead=2.0).run(40)
        assert trace.num_rebuilds == 1
        assert trace.downtime == pytest.approx(2.0 * period)
        assert trace.events_of_kind("crash-rebuild")
        assert trace.events_of_kind("rebuild-complete")
        lost = trace.lost_by_reason()
        assert lost.get("lost-downtime", 0) >= 1
        assert not trace.aborted
        # the stream recovered: data sets released after the rebuild complete
        assert trace.records[-1].completed

    def test_all_processors_dead_aborts(self, replicated):
        period = replicated.period
        events = tuple(
            FaultEvent(period * (2.1 + 0.1 * i), p, "crash")
            for i, p in enumerate(replicated.platform.processor_names)
        )
        trace = OnlineRuntime(replicated, FaultTrace(events, horizon=30 * period)).run(30)
        assert trace.aborted
        assert trace.final_alive == ()
        assert trace.lost_by_reason().get("lost-abort", 0) >= 1
        assert trace.events_of_kind("abort")
        # the dead tail of the horizon counts as downtime, so availability
        # reflects the loss instead of reporting a near-perfect stream
        assert trace.availability < 0.5
        assert trace.downtime >= trace.horizon - trace.events_of_kind("abort")[0].time

    def test_repair_is_logged_and_processor_rejoins(self, replicated):
        victim = replicated.used_processors()[0]
        period = replicated.period
        faults = FaultTrace(
            (
                FaultEvent(period * 4.5, victim, "crash"),
                FaultEvent(period * 8.5, victim, "repair"),
            ),
            horizon=20 * period,
        )
        trace = OnlineRuntime(replicated, faults).run(20)
        assert trace.events_of_kind("repair")
        assert victim in trace.final_alive
        # fail-stop: the repaired processor is NOT resurrected mid-schedule
        assert trace.num_rebuilds == 0

    def test_rebuild_on_repair_reclaims_capacity(self, replicated):
        victim = replicated.used_processors()[0]
        period = replicated.period
        faults = FaultTrace(
            (
                FaultEvent(period * 4.5, victim, "crash"),
                FaultEvent(period * 8.5, victim, "repair"),
            ),
            horizon=25 * period,
        )
        trace = OnlineRuntime(replicated, faults, rebuild_on_repair=True).run(25)
        assert trace.num_rebuilds == 1
        assert trace.events_of_kind("repair-rebuild")

    def test_rebuild_on_repair_skips_pointless_repairs(self, fig2, fig2_platform):
        # the crashed-and-repaired processor was never used: a rebuild would
        # change nothing, so the anticipatory heuristic must not pay downtime
        schedule = ltf_schedule(fig2, fig2_platform, throughput=0.05, epsilon=0)
        unused = next(
            p
            for p in schedule.platform.processor_names
            if p not in schedule.used_processors()
        )
        period = schedule.period
        faults = FaultTrace(
            (
                FaultEvent(period * 3.5, unused, "crash"),
                FaultEvent(period * 6.5, unused, "repair"),
            ),
            horizon=20 * period,
        )
        trace = OnlineRuntime(schedule, faults, rebuild_on_repair=True).run(20)
        assert trace.num_rebuilds == 0
        assert trace.downtime == 0.0
        assert trace.events_of_kind("repair-rebuild-skipped")
        assert not trace.events_of_kind("repair-rebuild")
        assert trace.completed_count == 20

    def test_initially_down_processors_execute_nothing(self):
        """A scheduled processor listed in ``initially_down`` is down from the
        start: the run equals the one-shot batch reference under that crash
        set, on victims whose absence really moves completions."""
        workload = random_paper_workload(0.5, seed=0, num_tasks=20, num_processors=8)
        period = workload_period(workload, 1, ExperimentConfig(period_slack=1.5))
        schedule = rltf_schedule(workload.graph, workload.platform, period=period, epsilon=1)
        n = 60
        fault_free = batch_completions(schedule, n)
        for victim in sorted(schedule.used_processors())[:3]:
            offline = batch_completions(schedule, n, {victim})
            assert offline != fault_free
            faults = FaultTrace((), horizon=n * period, initially_down={victim})
            trace = OnlineRuntime(schedule, faults).run(n)
            assert completions(trace) == offline
            assert victim not in trace.final_alive
            assert trace.events == ()

    def test_checkpoint_replays_in_flight_datasets_across_a_rebuild(self, replicated):
        p1, p2 = replicated.used_processors()[:2]
        period = replicated.period
        faults = FaultTrace(
            (
                FaultEvent(period * 5.5, p1, "crash"),
                FaultEvent(period * 12.5, p2, "crash"),
            ),
            horizon=40 * period,
        )
        ckpt = OnlineRuntime(replicated, faults, rebuild_overhead=2.0).run(40)
        assert ckpt.checkpoint
        assert ckpt.num_rebuilds == 1
        # only the two data sets released during the 2-period downtime are
        # lost; everything in flight at the rebuilding crash is replayed
        assert ckpt.lost_by_reason() == {"lost-downtime": 2}
        assert [r.index for r in ckpt.records if not r.completed] == [13, 14]
        assert ckpt.completed_count == 38

    def test_remap_policy_runs_online(self, replicated):
        p1, p2 = replicated.used_processors()[:2]
        period = replicated.period
        faults = FaultTrace(
            (
                FaultEvent(period * 3.5, p1, "crash"),
                FaultEvent(period * 9.5, p2, "crash"),
            ),
            horizon=30 * period,
        )
        trace = OnlineRuntime(replicated, faults, policy="remap").run(30)
        assert trace.policy == "remap"
        assert trace.num_rebuilds == 1
        assert not trace.aborted

    def test_determinism(self, replicated, fig2_platform):
        faults = sample_fault_trace(
            fig2_platform, horizon=30 * replicated.period, mttf=15 * replicated.period, seed=7
        )
        a = OnlineRuntime(replicated, faults).run(30)
        b = OnlineRuntime(replicated, faults).run(30)
        assert a == b

    def test_invalid_dataset_count(self, replicated):
        runtime = OnlineRuntime(replicated, empty_trace(replicated, 5))
        for bad in (0, -1, True, 2.5, math.nan):
            with pytest.raises(ValueError, match="num_datasets"):
                runtime.run(bad)

    def test_validation(self, replicated, fig2, fig2_platform):
        empty = empty_trace(replicated, 5)
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="rebuild_overhead"):
                OnlineRuntime(replicated, empty, rebuild_overhead=bad)
        with pytest.raises(TypeError, match="rebuild_overhead"):
            OnlineRuntime(replicated, empty, rebuild_overhead=True)
        for bad in (False, 1, None):
            with pytest.raises(ValueError, match="checkpoint"):
                OnlineRuntime(replicated, empty, checkpoint=bad)
            with pytest.raises(ValueError, match="fast_forward"):
                OnlineRuntime(replicated, empty, fast_forward=bad)
        with pytest.raises(ValueError):
            OnlineRuntime(replicated, empty_trace(replicated, 5)).run(0)
        incomplete = Schedule(fig2, fig2_platform, period=20.0, epsilon=1)
        with pytest.raises(ScheduleError):
            OnlineRuntime(incomplete, empty_trace(replicated, 5))


# ---------------------------------------------------------------------- traces
class TestRuntimeTrace:
    def test_dataset_record_validation(self):
        with pytest.raises(ValueError):
            DatasetRecord(0, 0.0, None, "completed")
        with pytest.raises(ValueError):
            DatasetRecord(0, 0.0, 5.0, "shed")
        with pytest.raises(ValueError):
            DatasetRecord(0, 0.0, 5.0, "vanished")

    def test_trace_statistics(self, replicated):
        trace = OnlineRuntime(replicated, empty_trace(replicated, 10)).run(10)
        assert trace.loss_rate == 0.0
        assert trace.availability == 1.0
        assert trace.mean_latency <= trace.max_latency
        assert trace.num_datasets == 10

    def test_summarize_traces(self, replicated):
        traces = [OnlineRuntime(replicated, empty_trace(replicated, 10)).run(10)] * 3
        stats = summarize_traces(traces)
        assert stats.trials == 3
        assert stats.aborted_trials == 0
        assert stats.mean_loss_rate == 0.0
        rows = stats.as_rows()
        assert any(r[0] == "trials" for r in rows)

    def test_summarize_empty_raises(self):
        with pytest.raises(ValueError):
            summarize_traces([])


# ------------------------------------------------------------------------- CLI
class TestCampaignCli:
    """A campaign from ``PATH=VALUE`` overrides: ``config --emit`` then
    ``run --mode monte-carlo``."""

    def _emit(self, tmp_path, capsys, *overrides) -> str:
        assert main(["config", "--emit", *overrides]) == 0
        path = tmp_path / "scenario.json"
        path.write_text(capsys.readouterr().out)
        return str(path)

    def test_emitted_campaign_is_seed_deterministic(self, tmp_path, capsys):
        path = self._emit(
            tmp_path, capsys, "runtime.num_datasets=25", "workload.num_tasks=12",
            "workload.num_processors=5", "scheduler.epsilon=1",
            "runtime.admission=queue", "runtime.queue_capacity=null",
            "runtime.rebuild_on_repair=true", "faults.mttr_periods=20",
        )
        args = ["run", path, "--mode", "monte-carlo", "--seed", "3", "--trials", "2"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "admission=queue" in first and "rebuilds" in first
        assert main(args + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == first


class TestGoldenSeedResults:
    """Frozen fingerprints of seeded runs, captured before the kernel fast
    path landed (evicting kernel, windowed admission, bitmask inputs, merged
    release events) and verified bit-identical across it.  Any change to
    these numbers means the optimized hot path altered simulation semantics —
    which the fast path, by contract, must never do.
    """

    SPEC = ScenarioSpec(name="runtime-trial").updated(
        {
            "workload.num_tasks": 20,
            "workload.num_processors": 8,
            "scheduler.epsilon": 2,
            "runtime.num_datasets": 80,
            "faults.mttf_periods": 30.0,
            "faults.mttr_periods": 10.0,
        }
    )

    @staticmethod
    def _fingerprint(trace) -> str:
        import hashlib

        blob = repr(
            (
                trace.records,
                trace.events,
                trace.period,
                trace.horizon,
                trace.num_rebuilds,
                trace.downtime,
                trace.aborted,
                trace.final_alive,
                trace.policy,
                trace.admission,
                trace.checkpoint,
            )
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    @pytest.mark.parametrize(
        "seed, fingerprint, completed, rebuilds",
        [
            (0, "71704f6b34ebc649", 76, 4),
            (1, "a3043dfb8cf41718", 74, 4),
            (7, "819208a9ae8b1fee", 78, 2),
        ],
    )
    def test_shed_admission_goldens(self, seed, fingerprint, completed, rebuilds):
        trace = run_scenario_online(self.SPEC, seed)
        assert trace.completed_count == completed
        assert trace.num_rebuilds == rebuilds
        assert self._fingerprint(trace) == fingerprint

    def test_queue_admission_with_repair_rebuilds_golden(self):
        spec = self.SPEC.updated(
            {"runtime.admission": "queue", "runtime.rebuild_on_repair": True}
        )
        trace = run_scenario_online(spec, 3)
        assert trace.completed_count == 80
        assert trace.num_rebuilds == 10
        assert self._fingerprint(trace) == "84e3f0105bdcb693"


class TestAdmissionWindowInvariance:
    """The control-loop admission window is a transport knob, never
    semantics: traces are identical for any window size."""

    @staticmethod
    def _crashy_case():
        schedule = ltf_schedule(
            figure2_graph(), figure2_platform(10), throughput=0.05, epsilon=1,
            strict_resilience=True,
        )
        victim = schedule.used_processors()[0]
        n = 600  # several windows long, so boundaries really interleave
        events = (FaultEvent(2.5 * schedule.period, victim, "crash"),)
        return schedule, FaultTrace(events, horizon=n * schedule.period), n

    def test_window_size_never_changes_traces(self, monkeypatch):
        import repro.runtime.engine as engine_mod

        schedule, faults, n = self._crashy_case()
        run = lambda: OnlineRuntime(schedule, faults, rebuild_beyond_epsilon=False).run(n)
        reference = run()
        monkeypatch.setattr(engine_mod, "_ADMIT_WINDOW", 10)
        tiny = run()
        monkeypatch.setattr(engine_mod, "_ADMIT_WINDOW", 10**9)
        unwindowed = run()
        assert tiny == reference == unwindowed

    @pytest.mark.parametrize("crash", [False, True])
    def test_release_ties_do_not_depend_on_the_window(self, monkeypatch, crash):
        """A fork-join whose transfers land on an entry replica's processor
        exactly at release instants: a release admitted after a window
        boundary still wins those ties, as it does when its whole control
        segment is admitted at once — and fault-free, the runtime then
        completes every data set when the one-shot batch admission does."""
        import repro.runtime.engine as engine_mod

        schedule = ltf_schedule(
            fork_join_graph(3, work=8.0, volume=4.0), homogeneous_platform(6),
            throughput=0.04, epsilon=1,
        )
        n = 600
        victim = schedule.used_processors()[0]
        events = (FaultEvent(100.5 * schedule.period, victim, "crash"),) if crash else ()
        faults = FaultTrace(events, horizon=n * schedule.period)
        traces = {}
        for window in (1, 7, 256, 10**6):
            monkeypatch.setattr(engine_mod, "_ADMIT_WINDOW", window)
            traces[window] = OnlineRuntime(schedule, faults).run(n)
        assert len({trace_fingerprint(t) for t in traces.values()}) == 1
        if not crash:
            expected = batch_completions(schedule, n)
            for trace in traces.values():
                assert completions(trace) == expected
