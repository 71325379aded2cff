"""Unit tests for LTF, R-LTF, the fault-free reference and the bi-criteria wrappers."""

import pytest

from repro.core.bicriteria import maximize_resilience, maximize_throughput
from repro.core.engine import MappingEngine, SchedulerOptions, condition_one, resolve_period
from repro.core.fault_free import fault_free_latency, fault_free_schedule
from repro.core.ltf import ltf_schedule
from repro.core.rebuild import build_forward_schedule
from repro.core.rltf import rltf_schedule
from repro.exceptions import (
    ReplicationError,
    ScheduleError,
    SchedulingError,
    ThroughputInfeasibleError,
)
from repro.graph.examples import dsp_filter_bank
from repro.graph.generator import chain_graph, fork_join_graph
from repro.platform.builders import homogeneous_platform
from repro.schedule.metrics import communication_count, latency_upper_bound
from repro.schedule.stages import num_stages
from repro.schedule.validation import check_resilience, validate_schedule


class TestResolvePeriod:
    def test_from_throughput(self):
        assert resolve_period(throughput=0.05) == pytest.approx(20.0)

    def test_from_period(self):
        assert resolve_period(period=25.0) == 25.0

    def test_exactly_one_required(self):
        with pytest.raises(ValueError):
            resolve_period()
        with pytest.raises(ValueError):
            resolve_period(throughput=0.1, period=10.0)


class TestSchedulerOptions:
    def test_defaults(self):
        opts = SchedulerOptions()
        assert opts.epsilon == 0
        assert opts.enable_one_to_one

    def test_validation(self):
        with pytest.raises(ValueError):
            SchedulerOptions(epsilon=-1)
        with pytest.raises(ValueError):
            SchedulerOptions(chunk_size=0)


class TestLTF:
    def test_schedules_every_replica(self, fig2, fig2_platform):
        sch = ltf_schedule(fig2, fig2_platform, throughput=0.05, epsilon=1)
        assert sch.is_complete()
        assert sch.num_placed_replicas == 14
        validate_schedule(sch)

    def test_meets_throughput_constraint(self, fig2, fig2_platform):
        sch = ltf_schedule(fig2, fig2_platform, throughput=0.05, epsilon=1)
        assert sch.max_cycle_time <= sch.period + 1e-6
        assert sch.achieved_throughput >= 0.05 - 1e-9

    def test_replicas_on_distinct_processors(self, fig2, fig2_platform):
        sch = ltf_schedule(fig2, fig2_platform, throughput=0.05, epsilon=1)
        for task in fig2.task_names:
            procs = sch.processors_of_task(task)
            assert len(set(procs)) == 2

    def test_epsilon_zero_single_copy(self, fig2, fig2_platform):
        sch = ltf_schedule(fig2, fig2_platform, throughput=0.05, epsilon=0)
        assert sch.num_placed_replicas == 7
        validate_schedule(sch)

    def test_fails_when_period_too_small(self, fig2, fig2_platform):
        with pytest.raises(ThroughputInfeasibleError):
            ltf_schedule(fig2, fig2_platform, period=5.0, epsilon=1)

    def test_fails_on_figure2_with_8_processors(self, fig2):
        # the paper's example: LTF cannot meet T=0.05 with m=8
        platform = homogeneous_platform(8)
        with pytest.raises(ThroughputInfeasibleError):
            ltf_schedule(fig2, platform, throughput=0.05, epsilon=1)

    def test_non_strict_mode_always_succeeds(self, fig2):
        platform = homogeneous_platform(8)
        sch = ltf_schedule(
            fig2, platform, throughput=0.05, epsilon=1, strict_throughput=False
        )
        assert sch.is_complete()
        assert sch.stats["relaxed_placements"] >= 1

    def test_epsilon_requires_enough_processors(self, fig2):
        with pytest.raises((ReplicationError, ScheduleError)):
            ltf_schedule(fig2, homogeneous_platform(2), period=100.0, epsilon=2)

    def test_one_to_one_reduces_communications(self, small_workload):
        w = small_workload
        period = 60 * w.mean_task_time
        with_oto = ltf_schedule(w.graph, w.platform, period=period, epsilon=1)
        without = ltf_schedule(
            w.graph, w.platform, period=period, epsilon=1, enable_one_to_one=False
        )
        assert communication_count(with_oto) < communication_count(without)

    def test_full_replication_upper_bound_on_comms(self, small_workload):
        w = small_workload
        period = 60 * w.mean_task_time
        eps = 1
        sch = ltf_schedule(
            w.graph, w.platform, period=period, epsilon=eps, enable_one_to_one=False
        )
        assert communication_count(sch, include_local=True) == (eps + 1) ** 2 * w.graph.num_edges

    def test_chain_feeding_on_series_parallel_reaches_minimum(self):
        # on a simple chain every edge needs exactly epsilon+1 transfers
        graph = chain_graph(8, work=10.0, volume=1.0)
        platform = homogeneous_platform(6)
        sch = ltf_schedule(graph, platform, period=40.0, epsilon=1)
        assert communication_count(sch, include_local=True) == 2 * graph.num_edges

    def test_chunk_size_one_is_classical_list_scheduling(self, small_workload):
        w = small_workload
        period = 60 * w.mean_task_time
        sch = ltf_schedule(w.graph, w.platform, period=period, epsilon=1, chunk_size=1)
        assert sch.is_complete()
        validate_schedule(sch)

    def test_custom_priorities_accepted(self, fig2, fig2_platform):
        prio = {t: float(i) for i, t in enumerate(fig2.task_names)}
        sch = ltf_schedule(fig2, fig2_platform, throughput=0.05, epsilon=1, priorities=prio)
        assert sch.is_complete()

    def test_strict_resilience_guarantee(self, small_workload):
        w = small_workload
        period = 80 * w.mean_task_time
        sch = ltf_schedule(
            w.graph, w.platform, period=period, epsilon=1, strict_resilience=True
        )
        check_resilience(sch)  # raises on any violated crash pattern

    def test_stats_populated(self, fig2, fig2_platform):
        sch = ltf_schedule(fig2, fig2_platform, throughput=0.05, epsilon=1)
        assert sch.stats["chunks"] >= 1
        assert sch.stats["one_to_one_calls"] + sch.stats["regular_mappings"] == 14


class TestRLTF:
    def test_schedules_every_replica(self, fig2, fig2_platform):
        sch = rltf_schedule(fig2, fig2_platform, throughput=0.05, epsilon=1)
        assert sch.is_complete()
        assert sch.algorithm == "r-ltf"
        validate_schedule(sch)

    def test_stage_count_not_worse_than_ltf(self, fig2, fig2_platform):
        ltf = ltf_schedule(fig2, fig2_platform, throughput=0.05, epsilon=1)
        rltf = rltf_schedule(fig2, fig2_platform, throughput=0.05, epsilon=1)
        assert num_stages(rltf) <= num_stages(ltf)

    def test_fewer_or_equal_communications_than_ltf(self, fig2, fig2_platform):
        ltf = ltf_schedule(fig2, fig2_platform, throughput=0.05, epsilon=1)
        rltf = rltf_schedule(fig2, fig2_platform, throughput=0.05, epsilon=1)
        assert communication_count(rltf) <= communication_count(ltf)

    def test_rules_can_be_disabled(self, small_workload):
        w = small_workload
        period = 60 * w.mean_task_time
        base = rltf_schedule(w.graph, w.platform, period=period, epsilon=1)
        no_rules = rltf_schedule(
            w.graph,
            w.platform,
            period=period,
            epsilon=1,
            enable_rule1=False,
            enable_rule2=False,
        )
        assert base.is_complete() and no_rules.is_complete()
        assert num_stages(base) <= num_stages(no_rules)

    def test_reverse_pass_stats_are_recorded(self, fig2, fig2_platform):
        sch = rltf_schedule(fig2, fig2_platform, throughput=0.05, epsilon=1)
        assert "reverse_chunks" in sch.stats
        assert "chain_fed" in sch.stats

    def test_fails_when_period_too_small(self, fig2, fig2_platform):
        with pytest.raises(ThroughputInfeasibleError):
            rltf_schedule(fig2, fig2_platform, period=5.0, epsilon=1)

    def test_epsilon_three_on_wide_platform(self, forkjoin):
        platform = homogeneous_platform(12)
        sch = rltf_schedule(forkjoin, platform, period=60.0, epsilon=3)
        assert sch.is_complete()
        for task in forkjoin.task_names:
            assert len(set(sch.processors_of_task(task))) == 4


class TestForwardRebuild:
    def test_rebuild_from_explicit_assignment(self, chain6):
        platform = homogeneous_platform(4)
        assignment = {t: ["P1" if i < 3 else "P2"] for i, t in enumerate(chain6.task_names)}
        sch = build_forward_schedule(chain6, platform, period=40.0, epsilon=0, assignment=assignment)
        assert num_stages(sch) == 2
        validate_schedule(sch)

    def test_missing_task_rejected(self, chain6):
        platform = homogeneous_platform(4)
        with pytest.raises(ScheduleError):
            build_forward_schedule(chain6, platform, 40.0, 0, {"t1": ["P1"]})

    def test_wrong_replica_count_rejected(self, chain6):
        platform = homogeneous_platform(4)
        assignment = {t: ["P1"] for t in chain6.task_names}
        with pytest.raises(ScheduleError):
            build_forward_schedule(chain6, platform, 40.0, 1, assignment)

    def test_duplicate_processors_rejected(self, chain6):
        platform = homogeneous_platform(4)
        assignment = {t: ["P1", "P1"] for t in chain6.task_names}
        with pytest.raises(ScheduleError):
            build_forward_schedule(chain6, platform, 40.0, 1, assignment)

    def test_overload_is_reported_not_raised(self, chain6):
        platform = homogeneous_platform(4)
        assignment = {t: ["P1"] for t in chain6.task_names}  # 60 work on one proc
        sch = build_forward_schedule(chain6, platform, period=10.0, epsilon=0, assignment=assignment)
        assert sch.stats["overloaded_processors"] == 1


class TestFaultFree:
    def test_fault_free_has_no_replication(self, fig2, fig2_platform):
        sch = fault_free_schedule(fig2, fig2_platform, throughput=0.05)
        assert sch.epsilon == 0
        assert sch.algorithm == "fault-free"
        assert sch.num_placed_replicas == 7

    def test_fault_free_latency_value(self, fig2, fig2_platform):
        latency = fault_free_latency(fig2, fig2_platform, throughput=0.05)
        sch = fault_free_schedule(fig2, fig2_platform, throughput=0.05)
        assert latency == pytest.approx(latency_upper_bound(sch))

    def test_replicated_latency_at_least_fault_free(self, fig2, fig2_platform):
        ff = fault_free_latency(fig2, fig2_platform, throughput=0.05)
        replicated = latency_upper_bound(
            rltf_schedule(fig2, fig2_platform, throughput=0.05, epsilon=1)
        )
        assert replicated >= ff - 1e-9


class TestBicriteria:
    def test_maximize_throughput_returns_feasible_schedule(self, chain6):
        platform = homogeneous_platform(4)
        result = maximize_throughput(chain6, platform, epsilon=1)
        assert result.schedule.is_complete()
        assert result.schedule.max_cycle_time <= result.period + 1e-6
        assert result.throughput == pytest.approx(1.0 / result.period)

    def test_maximize_throughput_respects_latency_bound(self, chain6):
        platform = homogeneous_platform(4)
        unconstrained = maximize_throughput(chain6, platform, epsilon=0)
        bound = unconstrained.latency * 2
        constrained = maximize_throughput(chain6, platform, epsilon=0, latency_bound=bound)
        assert constrained.latency <= bound + 1e-6
        # a latency bound can only reduce the achievable throughput
        assert constrained.period >= unconstrained.period - 1e-6 or constrained.latency <= bound

    @pytest.mark.parametrize("epsilon", [0, 1])
    def test_maximize_throughput_finds_a_period_meeting_the_latency_bound(self, epsilon):
        """Latency-bounded feasibility is not monotone in the period: at the
        most generous period this filter bank's latency exceeds the budget,
        yet Δ≈256 (ε=0, L≈1280) and Δ≈2290 (ε=1, L≈2290) both meet it."""
        graph = dsp_filter_bank(channels=8, taps=3)
        platform = homogeneous_platform(10, bandwidth=2.0)
        budget = 2560.6
        result = maximize_throughput(graph, platform, epsilon=epsilon, latency_bound=budget)
        assert result.latency <= budget
        assert result.schedule.max_cycle_time <= result.period + 1e-6
        unconstrained = maximize_throughput(graph, platform, epsilon=epsilon)
        assert result.period >= unconstrained.period
        if epsilon == 0:  # the unconstrained optimum already meets the budget
            assert result.period == unconstrained.period

    def test_maximize_throughput_raises_when_no_period_meets_the_bound(self, chain6):
        platform = homogeneous_platform(4)
        unconstrained = maximize_throughput(chain6, platform, epsilon=0)
        with pytest.raises(SchedulingError, match="latency bound"):
            maximize_throughput(
                chain6, platform, epsilon=0, latency_bound=0.5 * unconstrained.period
            )

    def test_maximize_throughput_beats_generous_period(self, chain6):
        platform = homogeneous_platform(4)
        result = maximize_throughput(chain6, platform, epsilon=0)
        generous = chain6.total_work / platform.min_speed
        assert result.period < generous

    def test_maximize_resilience(self, chain6):
        platform = homogeneous_platform(5)
        result = maximize_resilience(chain6, platform, period=60.0)
        assert 0 <= result.epsilon < 5
        assert result.schedule.replication_factor == result.epsilon + 1

    def test_maximize_resilience_requires_single_rate_argument(self, chain6):
        platform = homogeneous_platform(4)
        with pytest.raises(ValueError):
            maximize_resilience(chain6, platform)

    def test_maximize_resilience_infeasible_period(self, chain6):
        platform = homogeneous_platform(4)
        with pytest.raises(SchedulingError):
            maximize_resilience(chain6, platform, period=1.0)

    def test_unknown_scheduler_rejected(self, chain6):
        platform = homogeneous_platform(4)
        with pytest.raises(ValueError):
            maximize_throughput(chain6, platform, scheduler="does-not-exist")


class TestConditionOne:
    def test_condition_checks_all_three_loads(self, chain6):
        platform = homogeneous_platform(2)
        from repro.schedule.schedule import Schedule, plan_placement

        sch = Schedule(chain6, platform, period=25.0, epsilon=0)
        sch.apply_placement(plan_placement(sch, "t1", "P1", {}))
        plan = plan_placement(sch, "t2", "P2", {"t1": sch.replicas("t1")})
        assert condition_one(sch, plan, period=25.0)
        assert not condition_one(sch, plan, period=9.0)
