"""Observability layer (`repro.obs`): metrics, probes, Gantt export, sampling.

The acceptance bars of the instrumentation:

* attaching a probe never changes the trace — observation, not perturbation;
* the probe's counters reconcile exactly with the trace it watched;
* latency histograms merge *exactly* (the sparse transport form included),
  so campaign-level percentiles built from per-trial summaries equal the
  percentiles of the trials' traces;
* the Gantt SVG of a frozen seeded run is byte-identical to the golden file
  (`tests/golden/gantt_seed0.svg`) — the export is deterministic;
* trace sampling keeps every faulted data set, always.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.obs import (
    LATENCY_BUCKET_EDGES,
    LatencyHistogram,
    MetricsProbe,
    MetricsRegistry,
    render_gantt_html,
    render_gantt_svg,
    sample_trace,
    write_gantt,
)
from repro.scenario import ScenarioSpec
from repro.scenario.run import run_scenario_online

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"

#: The spec of `TestGoldenSeedResults` in test_runtime.py — its seed-0 trace
#: is the frozen golden run the Gantt export is pinned to.
GOLDEN_SPEC = ScenarioSpec(name="runtime-trial").updated(
    {
        "workload.num_tasks": 20,
        "workload.num_processors": 8,
        "scheduler.epsilon": 2,
        "runtime.num_datasets": 80,
        "faults.mttf_periods": 30.0,
        "faults.mttr_periods": 10.0,
    }
)


# ----------------------------------------------------------------- histogram
class TestLatencyHistogram:
    def test_empty_histogram_quantiles_are_nan(self):
        h = LatencyHistogram()
        assert h.total == 0
        assert math.isnan(h.quantile(0.5))

    def test_observe_and_nearest_rank_quantile(self):
        h = LatencyHistogram.from_values([1.0, 2.0, 3.0, 4.0])
        assert h.total == 4
        # nearest-rank: rank ceil(0.5 * 4) = 2 → the bucket holding 2.0,
        # reported as that bucket's upper edge (≥ the exact value)
        assert h.quantile(0.5) >= 2.0
        assert h.quantile(1.0) >= 4.0

    def test_quantile_is_bucket_upper_edge(self):
        import bisect

        value = 123.456
        h = LatencyHistogram.from_values([value])
        i = bisect.bisect_left(LATENCY_BUCKET_EDGES, value)
        assert h.quantile(0.5) == LATENCY_BUCKET_EDGES[i]
        # the edge over-reports by at most one bucket width (~8.5%)
        assert value <= h.quantile(0.5) <= value * 1.085

    def test_underflow_and_overflow_buckets(self):
        h = LatencyHistogram.from_values([0.0, 1e9])
        assert h.counts[0] == 1 and h.counts[-1] == 1
        # underflow reports the lowest edge; overflow reports the caller's
        # substitute (the exact max, in RuntimeStats)
        assert h.quantile(0.25) == LATENCY_BUCKET_EDGES[0]
        assert h.quantile(1.0, overflow=42.0) == 42.0
        assert math.isinf(h.quantile(1.0))

    def test_nan_values_are_ignored(self):
        h = LatencyHistogram.from_values([float("nan"), 5.0])
        assert h.total == 1

    def test_merge_equals_whole_set(self):
        a = LatencyHistogram.from_values([0.5, 80.0, 2.0])
        b = LatencyHistogram.from_values([3.0, 700.0])
        merged = a.merge(b)
        whole = LatencyHistogram.from_values([0.5, 80.0, 2.0, 3.0, 700.0])
        assert merged == whole
        for q in (0.1, 0.5, 0.9, 0.95, 1.0):
            assert merged.quantile(q) == whole.quantile(q)

    def test_sparse_round_trip(self):
        h = LatencyHistogram.from_values([1.0, 1.1, 900.0])
        sparse = h.as_sparse()
        assert all(count > 0 for _, count in sparse)
        assert LatencyHistogram.from_sparse(sparse) == h

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            LatencyHistogram([1, 2, 3])  # wrong length
        with pytest.raises(ValueError):
            LatencyHistogram.from_sparse(((0, -1),))


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 2)
        reg.set_gauge("g", 5.0)
        reg.max_gauge("m", 1.0)
        reg.max_gauge("m", 3.0)
        reg.max_gauge("m", 2.0)
        reg.add_gauge("s", 1.5)
        reg.add_gauge("s", 2.5)
        reg.observe("h", 10.0)
        assert reg.counter("a") == 3
        assert reg.gauge("g") == 5.0
        assert reg.gauge("m") == 3.0
        assert reg.gauge("s") == 4.0
        assert reg.histogram("h").total == 1

    def test_as_dict_is_sorted_and_json_safe(self):
        reg = MetricsRegistry()
        reg.inc("z")
        reg.inc("a")
        reg.observe("lat", 1.0)
        payload = reg.as_dict()
        assert list(payload["counters"]) == ["a", "z"]
        json.dumps(payload)  # must be JSON-serializable as-is


# --------------------------------------------------------------------- probe
class TestMetricsProbe:
    @pytest.fixture(scope="class")
    def probed_run(self):
        spec = GOLDEN_SPEC.updated({"name": "probed"})
        probe = MetricsProbe()
        trace = run_scenario_online(spec, seed=0, probe=probe)
        return trace, probe

    def test_probe_does_not_perturb_the_trace(self, probed_run):
        trace, _ = probed_run
        bare = run_scenario_online(GOLDEN_SPEC.updated({"name": "probed"}), seed=0)
        assert trace == bare

    def test_counters_reconcile_with_the_trace(self, probed_run):
        trace, probe = probed_run
        counters = probe.registry.counters
        assert counters["datasets.completed"] == trace.completed_count
        by_status = {
            name.removeprefix("datasets."): count
            for name, count in counters.items()
            if name.startswith("datasets.")
        }
        assert sum(by_status.values()) == len(trace.records)
        lost = {k: v for k, v in by_status.items() if k != "completed"}
        assert lost == trace.lost_by_reason()

    def test_kernel_event_counts_are_consistent(self, probed_run):
        _, probe = probed_run
        counters = probe.registry.counters
        kinds = [
            v for k, v in counters.items()
            if k.startswith("kernel.events.") and k != "kernel.events.total"
        ]
        assert sum(kinds) == counters["kernel.events.total"] > 0

    def test_latency_histogram_and_gauges(self, probed_run):
        trace, probe = probed_run
        hist = probe.registry.histogram("latency")
        assert hist.total == trace.completed_count
        assert probe.registry.gauge("latency.max") == trace.max_latency
        assert probe.registry.gauge("kernel.live_datasets.peak") >= 1

    def test_spans_cover_the_trace_downtime(self, probed_run):
        trace, probe = probed_run
        rebuild_spans = [s for s in probe.spans if s[0] == "rebuild"]
        assert len(rebuild_spans) == trace.num_rebuilds
        total = sum(end - start for _, start, end in rebuild_spans)
        assert total == pytest.approx(trace.downtime)
        assert probe.registry.gauge("runtime.downtime.rebuild") == pytest.approx(
            trace.downtime
        )

    def test_as_dict_is_json_serializable(self, probed_run):
        _, probe = probed_run
        payload = probe.as_dict()
        json.dumps(payload)
        assert "spans" in payload and payload["counters"]


# ------------------------------------------------------- percentile plumbing
class TestCampaignPercentiles:
    def test_summary_percentiles_match_trace_percentiles_exactly(self):
        from repro.experiments.parallel import run_runtime_campaign
        from repro.runtime.trace import summarize_traces

        spec = GOLDEN_SPEC.updated({"name": "pctl"})
        result = run_runtime_campaign(spec, trials=4, seed=0)
        full = summarize_traces(
            [run_scenario_online(spec, seed) for seed in result.trial_seeds]
        )
        for attr in (
            "p50_latency", "p95_latency", "p99_latency", "max_latency"
        ):
            assert getattr(full, attr) == getattr(result.stats, attr)
        assert full.latency_histogram == result.stats.latency_histogram

    def test_campaign_percentiles_equal_whole_set_percentiles(self):
        from repro.experiments.parallel import run_runtime_campaign

        spec = GOLDEN_SPEC.updated({"name": "pctl"})
        result = run_runtime_campaign(spec, trials=4, seed=0)
        latencies = [
            lat
            for seed in result.trial_seeds
            for lat in run_scenario_online(spec, seed).latencies
        ]
        whole = LatencyHistogram.from_values(latencies)
        exact_max = max(latencies)
        assert result.stats.max_latency == exact_max
        for q, attr in ((0.5, "p50_latency"), (0.95, "p95_latency"), (0.99, "p99_latency")):
            assert getattr(result.stats, attr) == whole.quantile(q, overflow=exact_max)

    def test_stats_rows_render_percentiles(self):
        from repro.experiments.parallel import run_runtime_campaign

        spec = GOLDEN_SPEC.updated({"name": "pctl"})
        rows = dict(run_runtime_campaign(spec, trials=2, seed=0).stats.as_rows())
        for label in ("latency (p50)", "latency (p95)", "latency (p99)", "latency (max)"):
            assert label in rows


# --------------------------------------------------------------------- gantt
class TestGantt:
    @pytest.fixture(scope="class")
    def golden_trace(self):
        return run_scenario_online(GOLDEN_SPEC, 0)

    def test_svg_matches_the_golden_file(self, golden_trace):
        golden = (GOLDEN_DIR / "gantt_seed0.svg").read_text()
        assert render_gantt_svg(golden_trace) == golden

    def test_render_is_deterministic(self, golden_trace):
        assert render_gantt_svg(golden_trace) == render_gantt_svg(golden_trace)

    def test_html_embeds_the_svg_and_legend(self, golden_trace):
        html = render_gantt_html(golden_trace)
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html and "completed" in html

    def test_write_gantt_picks_format_from_suffix(self, golden_trace, tmp_path):
        svg_path = write_gantt(golden_trace, tmp_path / "out" / "run.svg")
        html_path = write_gantt(golden_trace, tmp_path / "run.html")
        assert svg_path.read_text().startswith("<svg")
        assert html_path.read_text().startswith("<!DOCTYPE html>")

    def test_max_rows_caps_the_row_count(self, golden_trace):
        small = render_gantt_svg(golden_trace, max_rows=10)
        full = render_gantt_svg(golden_trace, max_rows=10_000)
        assert len(small) < len(full)


# ------------------------------------------------------------------ sampling
class TestSampleTrace:
    @pytest.fixture(scope="class")
    def faulted_trace(self):
        return run_scenario_online(GOLDEN_SPEC, 0)

    def test_keeps_every_faulted_dataset(self, faulted_trace):
        lost = [r for r in faulted_trace.records if not r.completed]
        assert lost  # the fixture must actually exercise faults
        for p in (0.0, 0.25, 1.0):
            kept = sample_trace(faulted_trace, p, seed=3).records
            assert [r for r in kept if not r.completed] == lost

    def test_p_bounds(self, faulted_trace):
        assert sample_trace(faulted_trace, 1.0).records == faulted_trace.records
        with pytest.raises(ValueError):
            sample_trace(faulted_trace, 1.5)
        with pytest.raises(ValueError):
            sample_trace(faulted_trace, -0.1)

    def test_sampling_is_seeded_and_deterministic(self, faulted_trace):
        a = sample_trace(faulted_trace, 0.5, seed=7).records
        b = sample_trace(faulted_trace, 0.5, seed=7).records
        assert a == b
        kept = len(sample_trace(faulted_trace, 0.5, seed=1).records)
        assert kept < len(faulted_trace.records)


# ------------------------------------------------------------------- the CLI
class TestObsCli:
    def _scenario_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(GOLDEN_SPEC.updated({"name": "obs-cli"}).to_json())
        return path

    def test_run_exports_gantt_and_metrics(self, tmp_path, capsys):
        from repro.cli import main

        gantt = tmp_path / "run.svg"
        metrics = tmp_path / "metrics.json"
        args = [
            "run", str(self._scenario_file(tmp_path)),
            "--gantt", str(gantt), "--metrics", str(metrics),
        ]
        assert main(args) == 0
        assert gantt.read_text().startswith("<svg")
        payload = json.loads(metrics.read_text())
        assert payload["counters"]["datasets.completed"] > 0
        out = capsys.readouterr().out
        assert "gantt: wrote" in out and "metrics: wrote" in out

    def test_run_sample_thins_the_gantt_export(self, tmp_path, capsys):
        from repro.cli import main

        gantt = tmp_path / "run.html"
        args = [
            "run", str(self._scenario_file(tmp_path)),
            "--gantt", str(gantt), "--sample", "0.1",
        ]
        assert main(args) == 0
        assert "of 80 records)" in capsys.readouterr().out
        assert gantt.read_text().startswith("<!DOCTYPE html>")
        # a fraction outside [0, 1] is a usage error before any work is done
        gantt.unlink()
        for bad in ("2", "-1", "nan"):
            with pytest.raises(SystemExit) as exc:
                main([*args[:-1], bad])
            assert exc.value.code == 2
            assert "--sample" in capsys.readouterr().err
            assert not gantt.exists()

    def test_run_obs_flags_require_online_mode(self, tmp_path, capsys):
        from repro.cli import main

        path = self._scenario_file(tmp_path)
        assert main(["run", str(path), "--mode", "schedule", "--gantt", "x.svg"]) == 2
        assert "--mode online" in capsys.readouterr().err
        assert main(["run", str(path), "--sample", "0.5"]) == 2
        assert "--gantt" in capsys.readouterr().err

    def test_cache_ls_prints_sizes_and_totals(self, tmp_path, capsys):
        from repro.cache import DiskCache
        from repro.cli import main

        cache_dir = tmp_path / "cache"
        cache = DiskCache(cache_dir)
        cache.put("a" * 64, {"payload": "x" * 2048})
        cache.put("b" * 64, {"payload": "y"})
        assert main(["cache", "ls", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "a" * 16 in out and "b" * 16 in out
        assert "KiB" in out  # sizes are human-readable, not raw byte counts
        assert "total (2 entries)" in out
        assert "ago" in out

    def test_cache_ls_empty_cache(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["cache", "ls", "--cache-dir", str(tmp_path / "none")]) == 0
        assert "(empty)" in capsys.readouterr().out
