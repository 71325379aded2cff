"""Unit tests for the parallel Monte-Carlo campaign engine."""

import pytest

from repro.exceptions import SpecificationError
from repro.experiments.campaign import run_campaign
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import (
    _supervised_units,
    ablation_rules,
    baseline_comparison,
    scaling_study,
)
from repro.experiments.parallel import run_runtime_campaign
from repro.experiments.sweep import run_suite
from repro.scenario import ScenarioSpec, SuiteSpec
from repro.scenario.run import run_scenario_online

TINY = ExperimentConfig(
    granularities=(0.5, 1.5),
    num_graphs=1,
    num_processors=10,
    task_range=(20, 25),
    crash_samples=2,
    seed=1,
)

SPEC = ScenarioSpec(name="runtime-trial").updated(
    {
        "workload.num_tasks": 15,
        "workload.num_processors": 6,
        "scheduler.epsilon": 1,
        "runtime.num_datasets": 30,
        "faults.mttf_periods": 40.0,
    }
)


def _failure_regimes(spec: ScenarioSpec, trials: int, seed: int) -> SuiteSpec:
    """A two-point failure-regime sweep over mttf, as a suite."""
    return SuiteSpec(
        base=spec.updated({"faults.distribution": "weibull"}),
        axes={
            "faults.mttf_periods": (30.0, 60.0),
            "faults.mttr_periods": (None,),
            "faults.weibull_shape": (1.0,),
        },
        trials=trials,
        seed=seed,
    )


def _square(x: int) -> int:
    return x * x


class TestParallelMap:
    """The figure studies' parallel map: the supervised pool, in input order."""

    def test_serial_preserves_order(self):
        assert _supervised_units(_square, [3, 1, 2], 1, what="t") == [9, 1, 4]

    def test_parallel_matches_serial(self):
        items = list(range(8))
        assert _supervised_units(_square, items, 4, what="t") == [x * x for x in items]

    def test_none_and_zero_jobs_run_serially(self):
        assert _supervised_units(_square, [2], None, what="t") == [4]
        assert _supervised_units(_square, [2, 3], 0, what="t") == [4, 9]
        serial = run_runtime_campaign(SPEC, trials=2, seed=1, jobs=1)
        suite = _failure_regimes(SPEC, 1, 0)
        campaign = run_campaign(1, TINY, jobs=1)
        for jobs in (None, 0):
            assert run_runtime_campaign(SPEC, trials=2, seed=1, jobs=jobs) == serial
            assert repr(run_suite(suite, jobs=jobs).as_rows()) == repr(run_suite(suite).as_rows())
            assert run_campaign(1, TINY, jobs=jobs) == campaign


class TestRuntimeCampaign:
    def test_same_seed_same_summaries(self):
        a = run_runtime_campaign(SPEC, trials=3, seed=5, jobs=1)
        b = run_runtime_campaign(SPEC, trials=3, seed=5, jobs=1)
        assert a.summaries == b.summaries
        assert a.trial_seeds == b.trial_seeds

    def test_jobs_do_not_change_results(self):
        serial = run_runtime_campaign(SPEC, trials=4, seed=0, jobs=1)
        fanned = run_runtime_campaign(SPEC, trials=4, seed=0, jobs=2)
        assert serial.summaries == fanned.summaries

    def test_stats_aggregate(self):
        result = run_runtime_campaign(SPEC, trials=3, seed=2, jobs=1)
        stats = result.stats
        assert stats.trials == 3
        assert 0.0 <= stats.mean_loss_rate <= 1.0
        assert 0.0 <= stats.mean_availability <= 1.0

    def test_trial_is_pure(self):
        assert run_scenario_online(SPEC, seed=11) == run_scenario_online(SPEC, seed=11)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_runtime_campaign(SPEC, trials=0)
        with pytest.raises(SpecificationError):
            SPEC.updated({"faults.mttf_periods": -1.0})
        with pytest.raises(SpecificationError):
            SPEC.updated({"faults.distribution": "zipf"})
        with pytest.raises(SpecificationError):
            SPEC.updated({"scheduler.epsilon": 10, "workload.num_processors": 5})

    def test_bool_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            run_runtime_campaign(SPEC, trials=True)

    def test_float_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            run_runtime_campaign(SPEC, trials=2.5)

    def test_session_bool_trials_rejected(self):
        from repro.api import Session

        with pytest.raises(ValueError, match="trials"):
            Session(SPEC).monte_carlo(trials=True)

    def test_suite_bool_trials_override_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            run_suite(_failure_regimes(SPEC, 1, 0), trials=True)

    def test_spec_overrides(self):
        spec = SPEC.updated({"runtime.policy": "remap"})
        assert spec.runtime.policy == "remap"
        assert spec.workload == SPEC.workload


class TestCampaignJobs:
    def test_run_campaign_parallel_is_bit_for_bit_identical(self):
        serial = run_campaign(1, TINY, jobs=1)
        fanned = run_campaign(1, TINY, jobs=2)
        assert [p.metrics for p in serial.points] == [p.metrics for p in fanned.points]
        assert [p.failures for p in serial.points] == [p.failures for p in fanned.points]

    def test_campaign_shards_within_a_point(self):
        """Per-graph fan-out: a single point parallelises bit-for-bit."""
        config = TINY.with_overrides(granularities=(1.0,), num_graphs=3)
        (serial,) = run_campaign(1, config, jobs=1).points
        (fanned,) = run_campaign(1, config, jobs=3).points
        assert serial.metrics == fanned.metrics
        assert serial.failures == fanned.failures

    def test_point_does_not_depend_on_the_other_granularities(self):
        config = TINY.with_overrides(num_graphs=2)
        campaign = run_campaign(1, config, jobs=2)
        alone = config.with_overrides(granularities=config.granularities[:1])
        (point,) = run_campaign(1, alone).points
        assert campaign.points[0].metrics == point.metrics

    def test_scaling_study_jobs_preserve_workloads(self):
        serial = scaling_study(sizes=(10, 20), epsilon=0, config=TINY, jobs=1)
        fanned = scaling_study(sizes=(10, 20), epsilon=0, config=TINY, jobs=2)
        # wall-clock numbers differ, the structure and x axis must not
        assert serial.x == fanned.x == (10.0, 20.0)
        assert set(serial.series) == set(fanned.series) == {"LTF", "R-LTF"}

    def test_runtime_sweep_jobs_are_bit_for_bit_identical(self):
        suite = _failure_regimes(SPEC.updated({"runtime.num_datasets": 20}), 2, 3)
        serial = run_suite(suite, jobs=1)
        fanned = run_suite(suite, jobs=2)
        assert serial.points == fanned.points
        panel = serial.panel(metric="availability")
        assert panel.x == (30.0, 60.0)
        assert set(panel.series) == {"mttr_periods=∞, weibull_shape=1"}
        assert len(serial.panels()) == 4

    def test_runtime_sweep_validation(self):
        with pytest.raises(ValueError):
            SuiteSpec(base=SPEC, axes={"faults.mttf_periods": ()})
        with pytest.raises(ValueError):
            run_suite(_failure_regimes(SPEC, 1, 0), trials=0)
        with pytest.raises(ValueError):
            SuiteSpec(base=SPEC, axes={"faults.mttf_periods": (None,)}).points()

    def test_ablations_parallel_identical(self):
        serial = ablation_rules(TINY, jobs=1)
        fanned = ablation_rules(TINY, jobs=2)
        assert serial.series == fanned.series

    def test_baselines_parallel_identical(self):
        serial = baseline_comparison(TINY, jobs=1)
        fanned = baseline_comparison(TINY, jobs=2)
        assert serial.series == fanned.series


class TestCampaignPayload:
    def test_campaign_stats_equal_trace_summaries(self):
        from repro.runtime.trace import summarize_traces

        campaign = run_runtime_campaign(SPEC, trials=4, seed=3)
        traces = [run_scenario_online(SPEC, seed) for seed in campaign.trial_seeds]
        assert campaign.stats == summarize_traces(traces)
        assert campaign.trials == len(campaign.summaries) == 4

    def test_campaign_result_is_jobs_invariant(self):
        serial = run_runtime_campaign(SPEC, trials=4, seed=2, jobs=1)
        fanned = run_runtime_campaign(SPEC, trials=4, seed=2, jobs=4)
        assert fanned == serial

    def test_combine_summaries_is_summarize_traces(self):
        from repro.runtime.trace import (
            combine_summaries,
            summarize_trace,
            summarize_traces,
        )

        traces = [run_scenario_online(SPEC, seed) for seed in (0, 5, 9)]
        assert combine_summaries(map(summarize_trace, traces)) == summarize_traces(
            traces
        )

    def test_reduce_accepts_only_stats(self):
        assert run_runtime_campaign(SPEC, trials=1, seed=0, reduce="stats").trials == 1
        for reduce in ("traces", "bogus"):
            with pytest.raises(ValueError, match="reduce"):
                run_runtime_campaign(SPEC, trials=2, seed=0, reduce=reduce)

    def test_suite_flattened_fanout_is_jobs_invariant(self):
        """trials × points share one pool; any jobs value is bit-identical."""
        suite = _failure_regimes(SPEC, 3, 6)
        serial = run_suite(suite, jobs=1)
        fanned = run_suite(suite, jobs=4)
        assert fanned.points == serial.points
        assert fanned.executed_trials == serial.executed_trials == 6

    def test_cli_reduce_flag_is_gone(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "campaign.json"
        SuiteSpec(base=SPEC, axes={}, trials=2).save(path)
        with pytest.raises(SystemExit) as exc:
            main(["suite", "run", str(path), "--no-cache", "--reduce", "stats"])
        assert exc.value.code == 2
        assert "--reduce" in capsys.readouterr().err
