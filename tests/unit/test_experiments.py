"""Unit tests for the experiment harness (config, campaign, figures, tables, CLI)."""

import math

import pytest

from repro.cache import campaign_key, open_cache, trial_key
from repro.experiments import campaign as campaign_module
from repro.experiments.campaign import FigurePoint, run_campaign
from repro.experiments.config import ExperimentConfig, bench_config, paper_config, workload_period
from repro.experiments.figures import (
    FigureSeries,
    ablation_rules,
    figure3a,
    figure3b,
    figure4a,
    scaling_study,
)
from repro.experiments.reporting import render_example_rows, render_series
from repro.experiments.tables import figure1_scenarios, figure2_example
from repro.cli import build_parser, main
from repro.graph.generator import random_paper_workload
from repro.resilience import ExecutionError


TINY = ExperimentConfig(
    granularities=(0.5, 1.5),
    num_graphs=1,
    num_processors=10,
    task_range=(20, 25),
    crash_samples=2,
    seed=1,
)


def _count_instances(monkeypatch) -> list:
    """Record the seed of every graph instance executed in-process (jobs=1)."""
    executed = []
    original = campaign_module.run_graph_instance

    def counting(item):
        executed.append(item[1])
        return original(item)

    monkeypatch.setattr(campaign_module, "run_graph_instance", counting)
    return executed


def _point(epsilon):
    """The one point of a campaign over granularity 1.0 alone."""
    (point,) = run_campaign(epsilon, TINY.with_overrides(granularities=(1.0,))).points
    return point


class TestConfig:
    def test_paper_config_defaults(self):
        cfg = paper_config()
        assert cfg.num_graphs == 60
        assert len(cfg.granularities) == 10
        assert cfg.granularities[0] == pytest.approx(0.2)
        assert cfg.granularities[-1] == pytest.approx(2.0)

    def test_bench_config_is_reduced(self):
        cfg = bench_config()
        assert cfg.num_graphs <= paper_config().num_graphs
        assert cfg.task_range[1] <= paper_config().task_range[1]

    def test_overrides(self):
        cfg = bench_config().with_overrides(num_graphs=5)
        assert cfg.num_graphs == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(granularities=())
        with pytest.raises(ValueError):
            ExperimentConfig(num_graphs=0)
        with pytest.raises(ValueError):
            ExperimentConfig(task_range=(10, 5))

    def test_crash_counts(self):
        cfg = paper_config()
        assert cfg.crash_counts(0) == (0,)
        assert cfg.crash_counts(1) == (0, 1)
        assert cfg.crash_counts(3) == (0, 2)

    def test_workload_period_scales_with_epsilon(self):
        w = random_paper_workload(1.0, seed=3, num_tasks=30, num_processors=10)
        cfg = TINY
        assert workload_period(w, 3, cfg) == pytest.approx(2 * workload_period(w, 1, cfg))

    def test_config_is_hashable(self):
        assert hash(bench_config()) == hash(bench_config())

    def test_bench_config_ignores_the_environment(self, monkeypatch):
        """The graph count is set by ``--graphs`` alone: a stale benchmark
        variable neither crashes nor resizes the preset."""
        monkeypatch.setenv("REPRO_BENCH_GRAPHS", "abc")
        assert bench_config().num_graphs == 2


class TestCampaign:
    def test_one_point_campaign_produces_metrics(self):
        point = _point(epsilon=1)
        assert point.instances == 1
        assert point.crashes == (0, 1)
        assert "R-LTF upper bound" in point.metrics or point.failures["R-LTF"] == 1
        assert "fault-free latency" in point.metrics

    def test_upper_bound_dominates_zero_crash(self):
        point = _point(epsilon=1)
        for algo in ("LTF", "R-LTF"):
            up = point.metric(f"{algo} upper bound")
            zero = point.metric(f"{algo} with 0 crash")
            if up == up and zero == zero:  # both defined
                assert up >= zero - 1e-9

    def test_point_metric_missing_is_nan(self):
        point = _point(epsilon=1)
        assert point.metric("not a metric") != point.metric("not a metric")  # NaN


class TestFigures:
    def test_figure3a_series_structure(self):
        series = figure3a(TINY)
        assert isinstance(series, FigureSeries)
        assert series.x == TINY.granularities
        assert set(series.series) == {
            "R-LTF With 0 Crash",
            "R-LTF UpperBound",
            "LTF With 0 Crash",
            "LTF UpperBound",
        }
        assert all(len(vals) == len(series.x) for vals in series.series.values())

    def test_campaign_cache_reused_across_panels(self, tmp_path):
        """Panels of one ε share their campaign through one result cache:
        figure3b after figure3a is served whole, with no miss."""
        cache = open_cache(tmp_path)
        a = figure3a(TINY, cache=cache)
        before = cache.stats.snapshot()
        b = figure3b(TINY, cache=cache)
        assert cache.stats.misses == before.misses
        assert cache.stats.hits == before.hits + len(TINY.granularities)
        assert repr(b) == repr(figure3b(TINY))
        assert a.series["LTF With 0 Crash"] == b.series["LTF With 0 Crash"]

    def test_more_graphs_execute_only_the_new_instances(self, tmp_path, monkeypatch):
        """Instance keys leave the graph count out: growing a figure from 2
        to 3 graphs per point executes one instance per point."""
        cache = open_cache(tmp_path)
        run_campaign(1, TINY.with_overrides(num_graphs=2), cache=cache)
        grown = TINY.with_overrides(num_graphs=3)
        executed = _count_instances(monkeypatch)
        warm = run_campaign(1, grown, cache=cache)
        assert len(executed) == len(TINY.granularities)
        assert repr(warm) == repr(run_campaign(1, grown))

    def test_interrupted_campaign_resumes_per_instance(self, tmp_path, monkeypatch):
        """A figure campaign that loses instances after retry exhaustion
        keeps its finished instances; a clean re-run on the same cache
        executes only the lost ones and matches a cold run."""
        config = TINY.with_overrides(num_graphs=3)
        cache = open_cache(tmp_path)
        monkeypatch.setenv("REPRO_CHAOS", "crash=0.6,seed=1")
        with pytest.raises(ExecutionError) as lost:
            figure4a(config, cache=cache)
        monkeypatch.delenv("REPRO_CHAOS")
        lost_seeds = sorted(failure.token for failure in lost.value.failures)
        assert 0 < len(lost_seeds) < len(config.granularities) * config.num_graphs
        executed = _count_instances(monkeypatch)
        resumed = figure4a(config, cache=cache)
        assert sorted(executed) == lost_seeds
        assert repr(resumed) == repr(figure4a(config))

    def test_figure_keys_never_equal_runtime_keys(self):
        spec = FigurePoint(1.0, 1, TINY).to_dict()
        assert campaign_key(spec, 5, 2, "figure") != campaign_key(spec, 5, 2)
        assert trial_key(spec, 5, 0, "figure") != trial_key(spec, 5, 0)

    def test_one_to_one_never_adds_remote_communications(self):
        """Ablation A2: LTF's one-to-one procedure sends at most as many
        remote messages as full replication of every edge."""
        series = ablation_rules(TINY, epsilon=1)
        with_oto = series.series["remote comms LTF"]
        without = series.series["remote comms LTF no one-to-one"]
        assert len(with_oto) == len(without) == len(TINY.granularities)
        for a, b in zip(with_oto, without):
            assert not (math.isnan(a) or math.isnan(b))
            assert a <= b

    def test_scaling_study_reports_times(self):
        series = scaling_study(sizes=(10, 20), epsilon=0, config=TINY)
        assert series.x == (10.0, 20.0)
        assert all(v >= 0 for vals in series.series.values() for v in vals)

    def test_as_rows(self):
        series = FigureSeries("x", "g", (1.0, 2.0), {"a": (3.0, 4.0)})
        assert series.as_rows() == [[1.0, 3.0], [2.0, 4.0]]


class TestTables:
    def test_figure1_scenarios_rows(self):
        rows = figure1_scenarios()
        scenarios = {r.scenario for r in rows}
        assert scenarios == {"task parallelism", "data parallelism", "pipelined execution"}
        pipelined = next(r for r in rows if r.scenario == "pipelined execution")
        # the paper reports L = 90 for the pipelined mapping with T = 1/30
        assert pipelined.latency == pytest.approx(90.0)
        assert pipelined.stages == 2

    def test_figure2_example_rows(self):
        rows = figure2_example()
        assert len(rows) == 4
        m10 = [r for r in rows if "m=10" in r.scenario]
        assert all(r.latency is not None for r in m10)


class TestReporting:
    def test_render_series_contains_headers(self):
        series = FigureSeries("demo", "g", (1.0,), {"curve": (2.0,)}, "desc")
        out = render_series(series)
        assert "demo" in out and "curve" in out

    def test_render_series_without_plot(self):
        series = FigureSeries("demo", "g", (1.0,), {"curve": (2.0,)})
        assert "=" not in render_series(series, plot=False).splitlines()[0]

    def test_render_example_rows(self):
        out = render_example_rows(figure2_example(), "demo title")
        assert out.splitlines()[0] == "demo title"


class TestCli:
    def test_parser_lists_all_commands(self):
        parser = build_parser()
        args = parser.parse_args(["figure3a"])
        assert args.command == "figure3a"

    def test_examples_command(self, capsys):
        assert main(["examples"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "Figure 2" in out

    def test_figure_command_with_tiny_scale(self, capsys):
        assert main(["scaling", "--no-plot"]) == 0
        assert "scaling_study" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags", [["--graphs", "1"], ["--paper-scale"]], ids=["graphs", "paper-scale"]
    )
    def test_scaling_has_no_scale_flags(self, flags, capsys):
        """The scaling study times fixed graph sizes: a graph count or the
        paper scale would change nothing, so both are usage errors."""
        with pytest.raises(SystemExit) as excinfo:
            main(["scaling", "--no-plot", *flags])
        assert excinfo.value.code == 2
        assert flags[0] in capsys.readouterr().err

    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            main([])
