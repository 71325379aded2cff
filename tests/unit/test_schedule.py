"""Unit tests for the schedule substrate (placement, ports, stages, metrics, validation)."""

import pytest

from repro.exceptions import PlatformError, ScheduleError, ValidationError
from repro.schedule.metrics import (
    collect_metrics,
    communication_count,
    fault_tolerance_overhead,
    latency_upper_bound,
    normalized_latency,
    processor_utilization,
    replication_comm_ratio,
    throughput,
)
from repro.schedule.ports import ProcessorTimelines
from repro.schedule.replica import Replica, replica_name
from repro.schedule.schedule import Schedule, plan_placement
from repro.schedule.stages import compute_stages, num_stages, stage_of_task, stages_by_processor
from repro.schedule.validation import (
    check_resilience,
    valid_replicas_under_failures,
    validate_schedule,
)


class TestReplica:
    def test_fields_and_name(self):
        r = Replica("t1", 2)
        assert r.task == "t1"
        assert r.index == 2
        assert replica_name(r) == "t1(2)"
        assert repr(r) == "t1(2)"


class TestProcessorTimelines:
    def test_loads_accumulate(self):
        pt = ProcessorTimelines("P1")
        pt.reserve_compute(0.0, 5.0)
        pt.reserve_incoming(0.0, 2.0)
        pt.reserve_outgoing(1.0, 3.0)
        assert pt.compute_load == 5.0
        assert pt.comm_in_load == 2.0
        assert pt.comm_out_load == 3.0
        assert pt.cycle_time == 5.0

    def test_utilization(self):
        pt = ProcessorTimelines("P1")
        pt.reserve_compute(0.0, 5.0)
        assert pt.utilization(10.0) == 0.5
        with pytest.raises(ValueError):
            pt.utilization(0.0)

    @pytest.mark.parametrize(
        "duration,error",
        [(-1.0, ValueError), (float("nan"), ValueError), (float("inf"), ValueError),
         (True, TypeError), ("1", TypeError)],
    )
    def test_invalid_durations_rejected(self, duration, error):
        pt = ProcessorTimelines("P1")
        for reserve in (pt.reserve_compute, pt.reserve_incoming, pt.reserve_outgoing):
            with pytest.raises(error):
                reserve(0.0, duration)
        assert (pt.compute_load, pt.comm_in_load, pt.comm_out_load) == (0.0, 0.0, 0.0)

    def test_ports_are_independent_resources(self):
        pt = ProcessorTimelines("P1")
        pt.reserve_compute(0.0, 5.0)
        pt.reserve_incoming(0.0, 5.0)
        pt.reserve_outgoing(0.0, 5.0)  # all three overlap in time: allowed
        with pytest.raises(ValueError):
            pt.reserve_incoming(1.0, 1.0)  # but the in-port itself is busy


@pytest.fixture
def manual_schedule(fig2, fig2_platform):
    """A hand-built partial schedule used by several tests."""
    sch = Schedule(fig2, fig2_platform, period=20.0, epsilon=1, algorithm="manual")
    for proc in ("P1", "P5"):
        sch.apply_placement(plan_placement(sch, "t1", proc, {}))
    return sch


class TestScheduleBasics:
    def test_invalid_period(self, fig2, fig2_platform):
        with pytest.raises(ValueError):
            Schedule(fig2, fig2_platform, period=0.0)

    def test_epsilon_bounds(self, fig2, fig2_platform):
        with pytest.raises(ScheduleError):
            Schedule(fig2, fig2_platform, period=10.0, epsilon=-1)
        with pytest.raises(ScheduleError):
            Schedule(fig2, fig2_platform, period=10.0, epsilon=10)

    def test_replication_factor_and_throughput(self, manual_schedule):
        assert manual_schedule.replication_factor == 2
        assert manual_schedule.throughput == pytest.approx(0.05)

    def test_next_replica_indices(self, manual_schedule):
        assert manual_schedule.next_replica("t2") == Replica("t2", 1)
        with pytest.raises(ScheduleError):
            manual_schedule.next_replica("t1")  # both replicas already placed

    def test_processor_of_and_replicas(self, manual_schedule):
        assert manual_schedule.processors_of_task("t1") == ("P1", "P5")
        assert manual_schedule.replicas_on("P1") == (Replica("t1", 1),)
        with pytest.raises(ScheduleError):
            manual_schedule.processor_of(Replica("t9", 1))

    def test_duplicate_processor_for_same_task_rejected(self, fig2, fig2_platform):
        sch = Schedule(fig2, fig2_platform, period=20.0, epsilon=1)
        sch.apply_placement(plan_placement(sch, "t1", "P1", {}))
        with pytest.raises(ScheduleError):
            sch.apply_placement(plan_placement(sch, "t1", "P1", {}))

    def test_double_placement_rejected(self, fig2, fig2_platform):
        sch = Schedule(fig2, fig2_platform, period=20.0, epsilon=0)
        plan = plan_placement(sch, "t1", "P1", {})
        sch.apply_placement(plan)
        with pytest.raises(ScheduleError):
            sch.apply_placement(plan)

    def test_unknown_processor_rejected(self, fig2, fig2_platform):
        sch = Schedule(fig2, fig2_platform, period=20.0, epsilon=0)
        plan = plan_placement(sch, "t1", "P1", {})
        plan.processor = "P99"
        with pytest.raises(PlatformError):
            sch.apply_placement(plan)
        assert sch.num_placed_replicas == 0

    def test_comm_events_follow_commits(self, manual_schedule):
        sch = manual_schedule
        assert sch.comm_events == ()
        sources = {"t1": sch.replicas("t1")}
        sch.apply_placement(plan_placement(sch, "t2", "P1", sources))
        first = sch.comm_events
        assert [(e.source, e.destination) for e in first] == [
            (Replica("t1", 1), Replica("t2", 1)),
            (Replica("t1", 2), Replica("t2", 1)),
        ]
        assert first[0].is_local and not first[1].is_local
        sch.apply_placement(plan_placement(sch, "t3", "P5", sources))
        assert sch.comm_events[:2] == first
        assert len(sch.comm_events) == 4

    def test_is_complete(self, manual_schedule):
        assert not manual_schedule.is_complete()

    def test_mapping_matrix_shape_and_content(self, manual_schedule):
        x = manual_schedule.mapping_matrix()
        assert x.shape == (7, 10)
        assert x.sum() == 2
        assert x[0, 0] == 1 and x[0, 4] == 1

    def test_gantt_rows_sorted(self, manual_schedule):
        rows = manual_schedule.gantt()
        assert rows == sorted(rows, key=lambda r: (r[0], r[2]))

    def test_makespan(self, manual_schedule):
        assert manual_schedule.makespan == pytest.approx(15.0)

    def test_execution_time_of(self, manual_schedule):
        replica = Replica("t1", 1)
        proc = manual_schedule.processor_of(replica)
        expected = manual_schedule.platform.execution_time(
            manual_schedule.graph.work("t1"), proc
        )
        assert manual_schedule.execution_time_of(replica) == pytest.approx(expected)
        with pytest.raises(ScheduleError):
            manual_schedule.execution_time_of(Replica("t2", 1))  # not placed

    def test_port_and_compute_interval_accessors(self, fig2, fig2_platform):
        from repro.core.ltf import ltf_schedule

        schedule = ltf_schedule(fig2, fig2_platform, throughput=0.05, epsilon=1)
        for proc in schedule.used_processors():
            compute = schedule.compute_intervals(proc)
            # one busy interval per hosted replica, sorted by start time
            assert len(compute) == len(schedule.replicas_on(proc))
            assert list(compute) == sorted(compute, key=lambda iv: iv.start)
            for port in (schedule.in_port_intervals(proc), schedule.out_port_intervals(proc)):
                for a, b in zip(port, port[1:]):
                    assert a.end <= b.start + 1e-9  # one-port: no overlap
        with pytest.raises(ScheduleError):
            schedule.compute_intervals("P99")


class TestPlanPlacement:
    def test_missing_sources_rejected(self, manual_schedule):
        with pytest.raises(ScheduleError):
            plan_placement(manual_schedule, "t2", "P2", {})

    def test_unplaced_source_rejected(self, manual_schedule):
        with pytest.raises(ScheduleError):
            plan_placement(manual_schedule, "t2", "P2", {"t1": [Replica("t1", 3)]})

    def test_local_communication_costs_nothing(self, manual_schedule):
        plan = plan_placement(manual_schedule, "t2", "P1", {"t1": [Replica("t1", 1)]})
        assert plan.incoming_comm_time == 0.0
        assert plan.start == pytest.approx(15.0)

    def test_remote_communication_serializes_on_ports(self, manual_schedule):
        sources = {"t1": manual_schedule.replicas("t1")}
        plan = plan_placement(manual_schedule, "t2", "P2", sources)
        # two incoming transfers of 2 units each, arriving one after the other
        assert plan.incoming_comm_time == pytest.approx(4.0)
        assert plan.start >= 15.0 + 4.0 - 1e-9
        spans = sorted((c.start, c.end) for c in plan.comms)
        for (s1, e1), (s2, _) in zip(spans, spans[1:]):
            assert s2 >= e1 - 1e-9

    def test_outgoing_comm_time_by_processor(self, manual_schedule):
        sources = {"t1": manual_schedule.replicas("t1")}
        plan = plan_placement(manual_schedule, "t2", "P2", sources)
        out = plan.outgoing_comm_time_by_processor()
        assert out == {"P1": pytest.approx(2.0), "P5": pytest.approx(2.0)}

    def test_plan_does_not_mutate_schedule(self, manual_schedule):
        before = manual_schedule.comm_in_load("P2")
        plan_placement(manual_schedule, "t2", "P2", {"t1": manual_schedule.replicas("t1")})
        assert manual_schedule.comm_in_load("P2") == before
        assert manual_schedule.num_placed_replicas == 2


class TestStagesAndMetrics:
    def _full_chain_schedule(self, chain6, homo4):
        """Chain of 6 tasks, no replication, greedily packed two per processor."""
        sch = Schedule(chain6, homo4, period=25.0, epsilon=0, algorithm="manual")
        procs = ["P1", "P1", "P2", "P2", "P3", "P3"]
        prev = None
        for task, proc in zip(chain6.task_names, procs):
            sources = {} if prev is None else {prev: sch.replicas(prev)}
            sch.apply_placement(plan_placement(sch, task, proc, sources))
            prev = task
        return sch

    def test_stage_counts_processor_changes(self, chain6, homo4):
        sch = self._full_chain_schedule(chain6, homo4)
        stages = compute_stages(sch)
        assert num_stages(sch) == 3
        assert stage_of_task(sch, "t1", stages) == 1
        assert stage_of_task(sch, "t6", stages) == 3

    def test_latency_formula(self, chain6, homo4):
        sch = self._full_chain_schedule(chain6, homo4)
        assert latency_upper_bound(sch) == pytest.approx((2 * 3 - 1) * 25.0)
        assert normalized_latency(sch, unit=25.0) == pytest.approx(5.0)

    def test_throughput_and_utilization(self, chain6, homo4):
        sch = self._full_chain_schedule(chain6, homo4)
        assert throughput(sch) == pytest.approx(1.0 / sch.max_cycle_time)
        util = processor_utilization(sch)
        assert util["P1"] == pytest.approx(20.0 / 25.0)
        assert util["P4"] == 0.0

    def test_communication_counts(self, chain6, homo4):
        sch = self._full_chain_schedule(chain6, homo4)
        assert communication_count(sch) == 2  # two processor changes
        assert communication_count(sch, include_local=True) == 5
        assert replication_comm_ratio(sch) == pytest.approx(1.0)

    def test_overhead_formula(self):
        assert fault_tolerance_overhead(150.0, 100.0) == pytest.approx(50.0)
        with pytest.raises(ValueError):
            fault_tolerance_overhead(150.0, 0.0)

    def test_collect_metrics(self, chain6, homo4):
        sch = self._full_chain_schedule(chain6, homo4)
        metrics = collect_metrics(sch)
        assert metrics.stages == 3
        assert metrics.latency == pytest.approx(125.0)
        assert metrics.used_processors == 3
        assert metrics.as_dict()["algorithm"] == "manual"

    def test_stages_by_processor(self, chain6, homo4):
        sch = self._full_chain_schedule(chain6, homo4)
        per_proc = stages_by_processor(sch)
        assert per_proc["P1"] == {1}
        assert per_proc["P3"] == {3}

    def test_num_stages_empty_schedule(self, fig2, fig2_platform):
        sch = Schedule(fig2, fig2_platform, period=20.0)
        with pytest.raises(ScheduleError):
            num_stages(sch)


class TestValidation:
    def test_incomplete_schedule_rejected(self, manual_schedule):
        with pytest.raises(ValidationError):
            validate_schedule(manual_schedule)
        validate_schedule(manual_schedule, require_complete=False)

    def test_overloaded_processor_detected(self, chain6, homo4):
        sch = Schedule(chain6, homo4, period=15.0, epsilon=0)
        prev = None
        for task in chain6.task_names:  # everything on P1: 60 > 15
            sources = {} if prev is None else {prev: sch.replicas(prev)}
            sch.apply_placement(plan_placement(sch, task, "P1", sources))
            prev = task
        with pytest.raises(ValidationError):
            validate_schedule(sch)

    def test_valid_replicas_under_failures_entry(self, manual_schedule):
        valid = valid_replicas_under_failures(manual_schedule, {"P1"})
        assert valid["t1"] == [Replica("t1", 2)]
        valid_none = valid_replicas_under_failures(manual_schedule, {"P1", "P5"})
        assert valid_none["t1"] == []

    def test_check_resilience_zero_epsilon_is_noop(self, chain6, homo4):
        sch = Schedule(chain6, homo4, period=100.0, epsilon=0)
        prev = None
        for task in chain6.task_names:
            sources = {} if prev is None else {prev: sch.replicas(prev)}
            sch.apply_placement(plan_placement(sch, task, "P1", sources))
            prev = task
        check_resilience(sch)  # epsilon == 0: nothing to check
