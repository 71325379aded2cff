"""End-to-end integration tests: workloads → schedulers → evaluation → experiments."""

import pytest
from conftest import offline_run

from repro.core.fault_free import fault_free_schedule
from repro.core.ltf import ltf_schedule
from repro.core.rltf import rltf_schedule
from repro.exceptions import SchedulingError
from repro.experiments.campaign import run_campaign
from repro.experiments.config import ExperimentConfig, workload_period
from repro.failures.evaluation import expected_crash_latency
from repro.graph.examples import dsp_filter_bank, sensor_fusion_graph, video_encoding_pipeline
from repro.graph.generator import random_paper_workload
from repro.platform.builders import heterogeneous_platform
from repro.schedule.metrics import collect_metrics, latency_upper_bound
from repro.schedule.stages import num_stages
from repro.schedule.validation import validate_schedule

CONFIG = ExperimentConfig(
    granularities=(0.4, 1.6),
    num_graphs=1,
    num_processors=12,
    task_range=(25, 35),
    crash_samples=2,
    seed=99,
)


def _schedule_workload(granularity, epsilon, algorithm):
    workload = random_paper_workload(
        granularity, seed=13, num_tasks=30, num_processors=CONFIG.num_processors
    )
    period = workload_period(workload, epsilon, CONFIG)
    schedule = algorithm(workload.graph, workload.platform, period=period, epsilon=epsilon)
    return workload, schedule


class TestSchedulerPipeline:
    @pytest.mark.parametrize("algorithm", [ltf_schedule, rltf_schedule])
    @pytest.mark.parametrize("epsilon", [0, 1])
    @pytest.mark.parametrize("granularity", [0.4, 1.6])
    def test_schedule_evaluate_and_simulate(self, algorithm, epsilon, granularity):
        workload, schedule = _schedule_workload(granularity, epsilon, algorithm)
        validate_schedule(schedule)
        metrics = collect_metrics(schedule)
        assert metrics.stages == num_stages(schedule)
        assert metrics.latency == pytest.approx(latency_upper_bound(schedule))

        # crash evaluation never exceeds the analytic upper bound
        crash = expected_crash_latency(
            schedule, crashes=min(epsilon, 1), samples=3, seed=0, on_invalid="upper_bound"
        )
        assert crash <= latency_upper_bound(schedule) + 1e-6

        # the event-driven execution is broadly consistent with the analytic
        # model: the greedy port arbitration of the kernel may lag a little
        # behind the steady-state bound, so a 30% slack is allowed here (the
        # tight comparisons live in tests/unit/test_failures.py on schedules
        # whose loads are comfortably below the period).
        trace = offline_run(schedule, 6)
        assert trace.completed_count == 6
        assert trace.latencies[-1] > 0
        assert trace.achieved_period <= 2.0 * max(schedule.period, schedule.max_cycle_time)

    def test_fault_free_is_a_lower_bound_for_replicated_schedules(self):
        workload, schedule = _schedule_workload(1.6, 1, rltf_schedule)
        ff = fault_free_schedule(
            workload.graph, workload.platform, period=workload_period(workload, 0, CONFIG)
        )
        assert latency_upper_bound(ff) <= latency_upper_bound(schedule) + 1e-9

    def test_higher_epsilon_costs_more_communications(self):
        _, eps1 = _schedule_workload(1.6, 1, ltf_schedule)
        try:
            _, eps2 = _schedule_workload(1.6, 2, ltf_schedule)
        except SchedulingError:
            pytest.skip("epsilon=2 infeasible on this instance")
        assert len(eps2.comm_events) >= len(eps1.comm_events)


class TestRealisticApplications:
    @pytest.mark.parametrize(
        "factory", [video_encoding_pipeline, dsp_filter_bank, sensor_fusion_graph]
    )
    def test_domain_workflows_schedule_and_survive_one_crash(self, factory):
        graph = factory()
        platform = heterogeneous_platform(10, seed=4)
        period = 3.0 * graph.total_work * platform.mean_inverse_speed / platform.num_processors
        period += 2.0 * graph.total_volume * platform.mean_inverse_bandwidth / platform.num_processors
        schedule = rltf_schedule(graph, platform, period=period, epsilon=1)
        validate_schedule(schedule)
        crash = expected_crash_latency(schedule, 1, samples=4, seed=2, on_invalid="upper_bound")
        assert crash <= latency_upper_bound(schedule) + 1e-6


class TestCampaignIntegration:
    def test_one_point_campaign_end_to_end(self):
        config = CONFIG.with_overrides(granularities=(0.8,))
        (point,) = run_campaign(1, config).points
        # at least one algorithm must have produced results on this instance
        produced = [k for k in point.metrics if k.endswith("upper bound")]
        assert produced or sum(point.failures.values()) > 0
        for name in produced:
            assert point.metrics[name] > 0
