"""The suite layer: SuiteSpec files, run_suite, SweepResult panels, CLI.

Covers the tentpole guarantees of the suite/cache redesign: suites round-trip
through JSON, execute bit-identically for any jobs value and any cache state
(a warm re-run executes zero points and reproduces the panels bit for bit),
editing one axis re-executes only the changed points, and the historical
failure-regime sweep is reproduced exactly through the generic engine.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.api import Session
from repro.cache import DiskCache, NullCache
from repro.exceptions import SpecificationError
from repro.experiments.parallel import run_runtime_campaign
from repro.experiments.sweep import SweepResult, run_suite
from repro.scenario import ScenarioSpec, SuiteSpec
from repro.utils.rng import derive_seed, ensure_rng

BASE = ScenarioSpec.from_dict(
    {
        "name": "suite-base",
        "workload": {"num_tasks": 10, "num_processors": 5},
        "scheduler": {"epsilon": 1},
        "faults": {"mttf_periods": 40.0},
        "runtime": {"num_datasets": 15},
    }
)
AXES = {
    "faults.mttf_periods": (30.0, 60.0),
    "faults.mttr_periods": (None, 15.0),
}
SUITE = SuiteSpec(base=BASE, axes=AXES, name="unit-suite", trials=2, seed=4)


class TestSuiteSpec:
    def test_json_round_trip_is_exact(self, tmp_path):
        assert SuiteSpec.from_json(SUITE.to_json()) == SUITE
        path = tmp_path / "suite.json"
        SUITE.save(path)
        assert SuiteSpec.from_file(path) == SUITE
        data = json.loads(path.read_text())
        assert list(data["axes"]) == list(AXES)  # axis order survives

    def test_points_match_grid_expansion(self):
        assert SUITE.points() == BASE.grid(dict(AXES))
        assert SUITE.num_points == 4

    def test_axis_validation(self):
        with pytest.raises(SpecificationError, match="faults.mttf_periods"):
            SuiteSpec(axes={"faults.mtf_periods": [1.0]})
        with pytest.raises(SpecificationError, match="ordered sequence"):
            SuiteSpec(axes={"faults.mttf_periods": 50.0})
        with pytest.raises(SpecificationError, match="trials"):
            SuiteSpec(trials=0)
        # bool is an int subclass: a JSON "trials": true must not run 1 trial
        with pytest.raises(SpecificationError, match="trials"):
            SuiteSpec.from_dict({"trials": True})
        with pytest.raises(SpecificationError, match="seed"):
            SuiteSpec(seed=False)

    def test_empty_axis_is_an_error_naming_the_axis(self):
        """The empty-axis fix: no silent empty sweeps anywhere."""
        with pytest.raises(ValueError, match="'faults.mttr_periods' has no values"):
            SuiteSpec(axes={"faults.mttf_periods": [1.0], "faults.mttr_periods": []})
        with pytest.raises(ValueError, match="'faults.mttf_periods' has no values"):
            BASE.grid({"faults.mttf_periods": []})
        with pytest.raises(ValueError, match="'faults.mttf_periods' has no values"):
            BASE.grid(faults__mttf_periods=[])

    def test_grid_accepts_iterables_and_unwraps_numpy(self):
        np = pytest.importorskip("numpy")
        specs = BASE.grid({"faults.mttf_periods": np.array([10.0, 20.0])})
        assert [s.faults.mttf_periods for s in specs] == [10.0, 20.0]
        specs = BASE.grid({"faults.mttf_periods": (v for v in (10.0, 20.0))})
        assert len(specs) == 2
        # numpy pair arrays are task_range-style values, not 0-d scalars
        specs = BASE.grid(
            {"workload.task_range": [np.array([5, 10]), np.array([10, 20])]}
        )
        assert [s.workload.task_range for s in specs] == [(5, 10), (10, 20)]
        # unordered containers would make per-point seeds nondeterministic
        with pytest.raises(SpecificationError, match="ordered sequence"):
            BASE.grid({"faults.mttf_periods": {10.0, 20.0}})

    def test_duplicate_axis_values_are_rejected(self):
        """==-duplicates would run one grid point twice and collapse a panel
        cell; True == 1 collisions count as duplicates too."""
        with pytest.raises(SpecificationError, match="duplicate value"):
            BASE.grid({"faults.mttf_periods": [50.0, 50.0]})
        with pytest.raises(SpecificationError, match="duplicate value"):
            SuiteSpec(axes={"runtime.checkpoint": [True, 1]})

    def test_equality_is_axis_order_sensitive(self):
        """Axis order fixes grid order and per-point seeds: reordered axes
        are a different experiment and must not compare equal."""
        a = SuiteSpec(axes={"faults.mttf_periods": (30.0,),
                            "faults.mttr_periods": (None,)})
        b = SuiteSpec(axes={"faults.mttr_periods": (None,),
                            "faults.mttf_periods": (30.0,)})
        assert a != b
        assert a == SuiteSpec.from_json(a.to_json())
        assert a != "not a suite"

    def test_scenario_file_as_suite_gets_a_helpful_error(self):
        with pytest.raises(SpecificationError, match="scenario file"):
            SuiteSpec.from_dict({"workload": {"num_tasks": 10}})

    def test_smoke_shrinks_every_dimension(self):
        big = SuiteSpec(
            base=BASE.updated({"runtime.num_datasets": 500}),
            axes={"faults.mttf_periods": (1.0, 2.0, 3.0, 4.0)},
            trials=9,
        )
        small = big.smoke()
        assert small.trials == 1
        assert small.base.runtime.num_datasets == 20
        assert small.axes["faults.mttf_periods"] == (1.0, 2.0)

    def test_smoke_caps_a_num_datasets_axis_too(self):
        """The stream cap must hold when num_datasets is itself an axis."""
        big = SuiteSpec(axes={"runtime.num_datasets": (500, 1000, 15)})
        small = big.smoke()
        assert small.axes["runtime.num_datasets"] == (20, 15)
        assert all(
            p.runtime.num_datasets <= 20 for p in small.points()
        )


class TestRunSuite:
    def test_points_reproduce_direct_campaigns(self):
        # a campaign is a suite with zero axes: its one point is the base
        for suite in (SUITE, SuiteSpec(base=BASE, axes={}, trials=2, seed=4)):
            result = run_suite(suite)
            rng = ensure_rng(suite.seed)
            for point, spec in zip(result.points, suite.points(), strict=True):
                seed = derive_seed(rng)
                assert point.seed == seed
                assert point.spec == spec
                assert not point.cached
                direct = run_runtime_campaign(spec, trials=suite.trials, seed=seed)
                assert point.campaign == direct

    def test_resume_executes_only_the_missing_trials(self, tmp_path):
        campaign = SuiteSpec(base=BASE, axes={}, trials=2, seed=4)
        small = run_suite(campaign, trials=1, cache=DiskCache(tmp_path), resume=True)
        grown = run_suite(campaign, cache=DiskCache(tmp_path), resume=True)
        assert small.executed_trials == 1
        assert grown.resumed_trials == 1 and grown.executed_trials == 1
        assert grown.points[0].campaign.summaries[:1] == small.points[0].campaign.summaries
        warm = run_suite(campaign, cache=DiskCache(tmp_path))
        assert warm.cached_count == 1 and warm.executed_trials == 0
        assert warm.points[0].campaign == grown.points[0].campaign

    def test_jobs_do_not_change_results(self):
        serial = run_suite(SUITE, jobs=1)
        fanned = run_suite(SUITE, jobs=2)
        assert [p.campaign for p in serial.points] == [p.campaign for p in fanned.points]

    def test_warm_run_executes_zero_points_bit_identically(self, tmp_path):
        cache = DiskCache(tmp_path)
        cold = run_suite(SUITE, cache=cache)
        warm = run_suite(SUITE, cache=cache)
        assert cold.executed_count == 4 and cold.cached_count == 0
        assert warm.executed_count == 0 and warm.cached_count == 4
        assert warm.cache_stats.hits == 4 and warm.cache_stats.misses == 0
        assert [p.campaign for p in warm.points] == [p.campaign for p in cold.points]
        for metric in ("availability", "loss rate", "mean latency"):
            assert warm.panel(metric=metric) == cold.panel(metric=metric)

    def test_editing_one_axis_only_reexecutes_changed_points(self, tmp_path):
        cache = DiskCache(tmp_path)
        run_suite(SUITE, cache=cache)
        edited = SuiteSpec(
            base=BASE,
            axes={
                "faults.mttf_periods": (30.0, 90.0),  # 60 → 90
                "faults.mttr_periods": (None, 15.0),
            },
            name="unit-suite",
            trials=2,
            seed=4,
        )
        rerun = run_suite(edited, cache=cache)
        assert rerun.cached_count == 2  # the mttf=30 points
        assert rerun.executed_count == 2  # the new mttf=90 points
        cached_flags = [p.cached for p in rerun.points]
        assert cached_flags == [True, True, False, False]

    def test_seed_and_trials_overrides(self, tmp_path):
        cache = DiskCache(tmp_path)
        run_suite(SUITE, cache=cache)
        other_seed = run_suite(SUITE, seed=99, cache=cache)
        assert other_seed.executed_count == 4  # different seeds, all miss
        other_trials = run_suite(SUITE, trials=1, cache=cache)
        assert other_trials.executed_count == 4  # different trials, all miss
        assert all(p.campaign.trials == 1 for p in other_trials.points)


class TestSweepResultPanels:
    @pytest.fixture(scope="class")
    def result(self):
        return run_suite(SUITE)

    def test_panel_defaults_to_first_axis(self, result):
        panel = result.panel(metric="availability")
        assert panel.x_label == "faults.mttf_periods"
        assert panel.x == (30.0, 60.0)
        assert set(panel.series) == {"mttr_periods=∞", "mttr_periods=15"}

    def test_panel_values_match_point_stats(self, result):
        panel = result.panel("faults.mttf_periods", metric="availability")
        for point in result.points:
            label = (
                "mttr_periods=∞"
                if point.spec.faults.mttr_periods is None
                else "mttr_periods=15"
            )
            x_index = panel.x.index(point.spec.faults.mttf_periods)
            assert panel.series[label][x_index] == point.stats.mean_availability

    def test_panel_on_the_other_axis(self, result):
        panel = result.panel("faults.mttr_periods", metric="loss rate")
        assert panel.x == (None, 15.0)
        assert set(panel.series) == {"mttf_periods=30", "mttf_periods=60"}

    def test_panel_rejects_bad_axes_and_metrics(self, result):
        with pytest.raises(SpecificationError, match="not an axis"):
            result.panel("faults.weibull_shape")
        with pytest.raises(SpecificationError, match="unknown sweep metric"):
            result.panel(metric="speed")
        with pytest.raises(SpecificationError, match="y_axis"):
            result.panel("faults.mttf_periods", y_axis="faults.mttf_periods")

    @pytest.mark.parametrize(
        "metric",
        ["mean_rebuilds", "mean_downtime", "mean_achieved_period", "total_crashes"],
    )
    def test_raw_stats_attribute_is_accepted_as_metric(self, result, metric):
        panel = result.panel(metric=metric)
        assert panel.name.endswith(metric)
        assert all(len(vals) == 2 for vals in panel.series.values())

    def test_panels_cover_all_report_metrics(self, result):
        assert len(result.panels()) == 4

    def test_as_rows_one_per_point(self, result):
        rows = result.as_rows()
        assert len(rows) == 4
        assert all(row[-1] == "run" for row in rows)
        headers = result.row_headers()
        assert all(len(row) == len(headers) for row in rows)
        # the metric columns are SWEEP_METRICS itself: no drift with panels
        from repro.experiments.sweep import SWEEP_METRICS

        assert headers[len(result.suite.axes):-1] == list(SWEEP_METRICS)

    def test_panel_over_unhashable_axis_values(self):
        """A task_range axis (list pairs in JSON) must pivot, not TypeError."""
        suite = SuiteSpec.from_json(
            json.dumps(
                {
                    "base": BASE.to_dict(),
                    "axes": {"workload.task_range": [[8, 10], [11, 13]]},
                    "trials": 1,
                }
            )
        )
        assert suite.axes["workload.task_range"] == ((8, 10), (11, 13))
        result = run_suite(suite)
        panel = result.panel(metric="availability")
        assert panel.x == ((8, 10), (11, 13))
        from repro.experiments.reporting import render_suite

        assert "grid points" in render_suite(result, plot=False)


class TestFailureRegimeSweepIsASpecialCase:
    """A failure-regime sweep is a suite over mttf × mttr × Weibull shape."""

    AXES = {
        "faults.mttf_periods": (30.0, 60.0),
        "faults.mttr_periods": (None,),
        "faults.weibull_shape": (1.0,),
    }

    def _suite(self) -> SuiteSpec:
        base = BASE.updated({"faults.distribution": "weibull"})
        return SuiteSpec(base=base, axes=self.AXES, trials=1, seed=2)

    def test_runtime_sweep_rides_on_the_generic_engine(self):
        sweep = run_suite(self._suite())
        assert list(sweep.axes) == list(self.AXES)
        rng = ensure_rng(2)
        assert [p.seed for p in sweep.points] == [derive_seed(rng) for _ in range(2)]
        panel = sweep.panel("faults.mttf_periods", metric="availability")
        assert panel.x == (30.0, 60.0)
        assert list(panel.series) == ["mttr_periods=∞, weibull_shape=1"]
        assert list(panel.series.values()) == [
            tuple(p.stats.mean_availability for p in sweep.points)
        ]

    def test_runtime_sweep_caches(self, tmp_path):
        cold = run_suite(self._suite(), cache=DiskCache(tmp_path))
        warm = run_suite(self._suite(), cache=DiskCache(tmp_path))
        assert warm.executed_count == 0
        assert warm.points == tuple(
            dataclasses.replace(p, cached=True) for p in cold.points
        )


class TestSessionSweep:
    def test_axis_mapping_builds_a_suite_over_the_session_spec(self):
        result = Session(BASE).sweep(dict(AXES), trials=2, seed=4)
        assert isinstance(result, SweepResult)
        assert result.suite.base == BASE
        direct = run_suite(SUITE)
        assert [p.campaign for p in result.points] == [
            p.campaign for p in direct.points
        ]

    def test_keyword_axes(self):
        result = Session(BASE).sweep(faults__mttf_periods=[30.0, 60.0], trials=1)
        assert list(result.suite.axes) == ["faults.mttf_periods"]

    def test_suite_spec_runs_with_its_own_base(self):
        other_session = Session(ScenarioSpec())  # spec is irrelevant for suites
        result = other_session.sweep(SUITE)
        assert result.suite is SUITE
        assert result.trials == SUITE.trials and result.seed == SUITE.seed

    def test_suite_plus_keyword_axes_is_rejected(self):
        with pytest.raises(TypeError, match="not both"):
            Session(BASE).sweep(SUITE, faults__mttf_periods=[1.0])

    def test_suite_plus_name_is_rejected_not_silently_dropped(self):
        """name= feeds cache keys and report labels; ignoring it would lie."""
        with pytest.raises(TypeError, match="name="):
            Session(BASE).sweep(SUITE, name="renamed")

    def test_new_sweep_api_is_exported(self):
        import repro.experiments as experiments

        for name in ("SweepResult", "SuitePointResult", "run_suite", "render_suite"):
            assert name in experiments.__all__
            assert hasattr(experiments, name)


class TestSuiteCli:
    def _write_suite(self, tmp_path):
        path = tmp_path / "suite.json"
        SuiteSpec(
            base=BASE, axes={"faults.mttf_periods": (30.0, 60.0)},
            name="cli-suite", trials=1, seed=0,
        ).save(path)
        return path

    def test_cold_then_warm_run(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write_suite(tmp_path)
        cache_dir = str(tmp_path / "cache")
        args = ["suite", "run", str(path), "--cache-dir", cache_dir, "--no-plot"]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "executed 2 of 2 points" in cold
        assert "cli-suite:availability" in cold
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "executed 0 of 2 points" in warm

    def test_report_serves_percentiles_from_a_warm_cache(self, tmp_path, capsys):
        """`suite report` on a cached suite renders the latency distribution
        without re-executing a single grid point."""
        from repro.cli import main

        path = self._write_suite(tmp_path)
        cache_dir = str(tmp_path / "cache")
        assert main(["suite", "run", str(path), "--cache-dir", cache_dir,
                     "--no-plot"]) == 0
        capsys.readouterr()
        assert main(["suite", "report", str(path), "--cache-dir", cache_dir,
                     "--no-plot"]) == 0
        report = capsys.readouterr().out
        assert "executed 0 of 2 points" in report
        for column in ("p50 latency", "p95 latency", "p99 latency", "max latency"):
            assert column in report
        assert "latency by grid point" in report

    def test_report_has_no_trajectory_flag(self, tmp_path, capsys):
        """The benchmark history is not part of the suite report: the flag
        is a usage error."""
        from repro.cli import main

        path = self._write_suite(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["suite", "report", str(path), "--no-cache", "--no-plot",
                  "--trajectory", "x"])
        assert excinfo.value.code == 2
        assert "--trajectory" in capsys.readouterr().err

    def test_no_cache_bypasses(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write_suite(tmp_path)
        cache_dir = str(tmp_path / "cache")
        args = [
            "suite", "run", str(path), "--cache-dir", cache_dir,
            "--no-cache", "--no-plot",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "cache: disabled" in first
        assert main(args) == 0
        assert "executed 2 of 2 points" in capsys.readouterr().out
        assert not (tmp_path / "cache").exists()

    def test_smoke_and_axis_flags(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write_suite(tmp_path)
        assert (
            main(
                ["suite", "run", str(path), "--smoke", "--no-cache", "--no-plot",
                 "--x-axis", "faults.mttf_periods"]
            )
            == 0
        )
        assert "1 trials/point" in capsys.readouterr().out

    def test_header_reflects_trials_and_seed_overrides(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write_suite(tmp_path)  # declares trials=1, seed=0
        assert (
            main(
                ["suite", "run", str(path), "--no-cache", "--no-plot",
                 "--trials", "2", "--seed", "7"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "2 trials/point, seed 7" in out

    def test_emit_round_trips(self, capsys):
        from repro.cli import main

        assert main(["suite", "emit"]) == 0
        suite = SuiteSpec.from_json(capsys.readouterr().out)
        assert suite.num_points >= 2

    def test_bad_axis_flags_fail_before_any_execution(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write_suite(tmp_path)
        cache_dir = str(tmp_path / "cache")
        assert (
            main(
                ["suite", "run", str(path), "--cache-dir", cache_dir,
                 "--x-axis", "faults.typo"]
            )
            == 2
        )
        assert "not an axis" in capsys.readouterr().err
        assert not (tmp_path / "cache").exists(), "no grid point may have run"
        assert (
            main(
                ["suite", "run", str(path), "--no-cache",
                 "--y-axis", "runtime.policy"]
            )
            == 2
        )
        assert "--y-axis" in capsys.readouterr().err
        # y equal to the (defaulted) x axis must also fail before execution
        assert (
            main(
                ["suite", "run", str(path), "--cache-dir", cache_dir,
                 "--y-axis", "faults.mttf_periods"]
            )
            == 2
        )
        assert "is the x axis" in capsys.readouterr().err
        assert not (tmp_path / "cache").exists(), "no grid point may have run"

    def test_errors_exit_2(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["suite", "run", str(tmp_path / "nope.json")]) == 2
        assert "cannot read suite" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text('{"axes": {"faults.mttf_periods": []}}')
        assert main(["suite", "run", str(bad), "--no-cache"]) == 2
        assert "has no values" in capsys.readouterr().err
