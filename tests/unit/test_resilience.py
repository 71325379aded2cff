"""Unit tests of the resilient execution layer (``repro.resilience``).

The chaos harness makes the failure modes deterministic, so every recovery
path — worker crash, stuck worker, corrupted payload, retry exhaustion,
drain — is driven on purpose and asserted exactly.  Pool tests use a tiny
pure function, not the simulation engine, to keep them fast.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.exceptions import SpecificationError
from repro.resilience import (
    CHAOS_ENV,
    ChaosCrash,
    ChaosSpec,
    CorruptPayload,
    ExecutionError,
    RetryPolicy,
    resolve_chaos,
    supervised_map,
)
from repro.resilience.supervisor import COUNTER_NAMES, ExecutionInterrupted

#: zero-backoff policy so retry tests never sleep.
FAST = RetryPolicy(max_retries=2, backoff_base=0.0)


def _square(x: int) -> int:
    return x * x


def _sleep_then_square(x: float) -> float:
    if x < 0:
        time.sleep(30.0)
    return x * x


def _token_with(spec: ChaosSpec, schedule) -> int:
    """A token whose chaos decisions for attempts 0.. match *schedule*."""
    for token in range(100_000):
        if all(spec.decide(token, a) == want for a, want in enumerate(schedule)):
            return token
    raise AssertionError(f"no token realizes the schedule {schedule}")


class TestChaosSpec:
    def test_parse_roundtrip(self):
        spec = ChaosSpec.parse("crash=0.2,stall=0.1,corrupt=0.3,stall_seconds=2,seed=7")
        assert (spec.crash, spec.stall, spec.corrupt) == (0.2, 0.1, 0.3)
        assert spec.stall_seconds == 2.0 and spec.seed == 7
        assert ChaosSpec.parse(spec.spec_string()) == spec

    def test_parse_rejects_unknown_keys_and_bad_rates(self):
        with pytest.raises(SpecificationError):
            ChaosSpec.parse("krash=0.2")
        with pytest.raises(SpecificationError):
            ChaosSpec.parse("crash=1.5")
        with pytest.raises(SpecificationError):
            ChaosSpec(crash=-0.1)

    def test_decide_is_deterministic_and_attempt_keyed(self):
        spec = ChaosSpec(crash=0.5, seed=3)
        token = _token_with(spec, ["crash", None])
        # pure: same inputs, same decision, any number of times
        assert spec.decide(token, 0) == "crash" == spec.decide(token, 0)
        # attempt-keyed: the retry re-rolls and survives
        assert spec.decide(token, 1) is None

    def test_rate_extremes(self):
        always = ChaosSpec(crash=1.0, seed=0)
        never = ChaosSpec(crash=0.0, stall=0.0, corrupt=0.0, seed=0)
        for token in (0, 1, 12345):
            assert always.decide(token, 0) == "crash"
            assert never.decide(token, 0) is None
        assert not never.active and resolve_chaos(never) is None

    def test_resolve_chaos_accepts_spec_string_and_env(self, monkeypatch):
        spec = ChaosSpec(crash=0.25, seed=9)
        assert resolve_chaos(spec) is spec
        assert resolve_chaos("crash=0.25,seed=9") == spec
        monkeypatch.setenv(CHAOS_ENV, "corrupt=0.5,seed=2")
        assert resolve_chaos(None) == ChaosSpec(corrupt=0.5, seed=2)
        monkeypatch.delenv(CHAOS_ENV)
        assert resolve_chaos(None) is None

    def test_inject_in_parent_raises_and_corrupts(self):
        crashy = ChaosSpec(crash=1.0, seed=0)
        with pytest.raises(ChaosCrash):
            crashy.inject(0, 0)
        corrupting = ChaosSpec(corrupt=1.0, seed=0)
        marker = corrupting.inject(7, 2)
        assert isinstance(marker, CorruptPayload)
        assert (marker.token, marker.attempt) == (7, 2)


class TestSupervisedMapSerial:
    def test_plain_map(self):
        outcome = supervised_map(_square, [3, 1, 2])
        assert outcome.values == [9, 1, 4]
        assert outcome.complete and not outcome.failures
        assert set(outcome.counters) == set(COUNTER_NAMES)
        assert not any(outcome.counters.values())

    def test_chaos_crash_is_retried_to_success(self):
        chaos = ChaosSpec(crash=0.5, seed=1)
        token = _token_with(chaos, ["crash", None])
        outcome = supervised_map(
            _square, [4], tokens=[token], policy=FAST, chaos=chaos
        )
        assert outcome.values == [16] and outcome.complete
        assert outcome.counters["worker_crashes"] == 1
        assert outcome.counters["retries"] == 1

    def test_corrupt_payload_is_rejected_and_retried(self):
        chaos = ChaosSpec(corrupt=0.5, seed=2)
        token = _token_with(chaos, ["corrupt", None])
        outcome = supervised_map(
            _square, [5], tokens=[token], policy=FAST, chaos=chaos
        )
        assert outcome.values == [25] and outcome.complete
        assert outcome.counters["corrupt_payloads"] == 1

    def test_retry_exhaustion_degrades_not_raises(self):
        chaos = ChaosSpec(crash=1.0, seed=0)  # crashes at every attempt
        outcome = supervised_map(
            _square, [3, 4], tokens=[10, 11],
            policy=RetryPolicy(max_retries=1, backoff_base=0.0), chaos=chaos,
        )
        assert not outcome.complete
        assert outcome.values == [None, None]
        assert [f.index for f in outcome.failures] == [0, 1]
        assert all(f.kind == "crash" and f.attempts == 2 for f in outcome.failures)
        # the failure message names the unit for the degradation report
        assert "unit #0" in outcome.failures[0].describe()

    def test_plain_exception_is_charged_like_a_crash(self):
        def boom(x):
            raise RuntimeError("bad trial")

        outcome = supervised_map(
            boom, [1], policy=RetryPolicy(max_retries=0, backoff_base=0.0)
        )
        assert outcome.failures[0].kind == "error"
        assert "bad trial" in outcome.failures[0].error

    def test_stop_event_drains(self):
        stop = threading.Event()
        stop.set()
        outcome = supervised_map(_square, [1, 2, 3], stop=stop)
        assert outcome.interrupted and not outcome.complete
        assert outcome.values == [None, None, None]

    def test_on_result_fires_in_completion_order(self):
        seen = []
        outcome = supervised_map(
            _square, [2, 3], on_result=lambda i, v: seen.append((i, v))
        )
        assert outcome.complete and seen == [(0, 4), (1, 9)]

    def test_validation(self):
        with pytest.raises(SpecificationError):
            supervised_map(_square, [1, 2], tokens=[1])
        with pytest.raises(SpecificationError):
            supervised_map(_square, [1], timeout=0)
        with pytest.raises(SpecificationError):
            RetryPolicy(max_retries=-1)


class TestSupervisedPool:
    """Real worker processes: chaos ``os._exit``s them, timeouts kill them."""

    def test_worker_crash_is_recovered_bit_identically(self):
        chaos = ChaosSpec(crash=0.4, seed=5)
        tokens = [_token_with(chaos, ["crash", None]), _token_with(chaos, [None])]
        outcome = supervised_map(
            _square, [7, 8], jobs=2, tokens=tokens,
            policy=RetryPolicy(max_retries=3, backoff_base=0.0), chaos=chaos,
        )
        assert outcome.complete and outcome.values == [49, 64]
        assert outcome.counters["worker_crashes"] >= 1
        assert outcome.counters["pool_respawns"] >= 1

    def test_chaos_culprit_prediction_spares_innocents(self):
        # one unit crashes at attempts 0..2; its pool-mates must not be
        # charged for those crashes, or collective exhaustion would set in
        chaos = ChaosSpec(crash=0.4, seed=6)
        guilty = _token_with(chaos, ["crash", "crash", "crash", None])
        innocents = [t for t in range(1000, 4000) if chaos.decide(t, 0) is None][:3]
        outcome = supervised_map(
            _square, [1, 2, 3, 4], jobs=2,
            tokens=[guilty, *innocents],
            policy=RetryPolicy(max_retries=3, backoff_base=0.0), chaos=chaos,
        )
        assert outcome.complete and outcome.values == [1, 4, 9, 16]

    def test_timeout_kills_stuck_worker_and_degrades(self):
        outcome = supervised_map(
            _sleep_then_square, [-1.0, 3.0], jobs=2,
            policy=RetryPolicy(max_retries=0, backoff_base=0.0), timeout=0.5,
        )
        assert outcome.values[1] == 9.0  # the innocent unit completed
        assert [f.index for f in outcome.failures] == [0]
        assert outcome.failures[0].kind == "timeout"
        assert outcome.counters["timeouts"] == 1


class TestCampaignResilience:
    """The engine-facing surface: run_runtime_campaign / run_suite."""

    def _spec(self):
        from repro.scenario.spec import ScenarioSpec

        return ScenarioSpec.from_dict(
            {
                "name": "runtime-trial",
                "workload": {"num_tasks": 10, "num_processors": 5},
                "scheduler": {"epsilon": 1},
                "faults": {"mttf_periods": 40.0},
                "runtime": {"num_datasets": 15},
            }
        )

    def test_campaign_recovers_from_chaos_bit_identically(self):
        from repro.experiments.parallel import run_runtime_campaign

        clean = run_runtime_campaign(self._spec(), trials=3, seed=5, jobs=1)
        chaotic = run_runtime_campaign(
            self._spec(), trials=3, seed=5, jobs=1,
            chaos="crash=0.4,corrupt=0.2,seed=11", max_retries=6,
        )
        assert clean.summaries == chaotic.summaries

    def test_campaign_raises_execution_error_on_exhaustion(self):
        from repro.experiments.parallel import run_runtime_campaign

        with pytest.raises(ExecutionError, match="retry exhaustion"):
            run_runtime_campaign(
                self._spec(), trials=2, seed=5, jobs=1,
                chaos="crash=1.0,seed=0", max_retries=0,
            )

    def test_campaign_interrupted_raises_with_resume_hint(self):
        from repro.experiments.parallel import run_runtime_campaign

        stop = threading.Event()
        stop.set()
        with pytest.raises(ExecutionInterrupted, match="resume"):
            run_runtime_campaign(self._spec(), trials=2, seed=5, stop=stop)

    def test_campaign_resume_reuses_trial_checkpoints(self, tmp_path):
        from repro.cache import DiskCache
        from repro.experiments.parallel import run_runtime_campaign

        cache = DiskCache(tmp_path / "cache")
        small = run_runtime_campaign(
            self._spec(), trials=2, seed=5, cache=cache, resume=True
        )
        # grow the campaign: the first 2 trials come from their checkpoints
        # (trial keys exclude the trial count), only the third executes
        cache2 = DiskCache(tmp_path / "cache")
        grown = run_runtime_campaign(
            self._spec(), trials=3, seed=5, cache=cache2, resume=True
        )
        assert grown.summaries[:2] == small.summaries
        assert cache2.stats.hits >= 2

    def _suite(self):
        from repro.scenario.spec import ScenarioSpec
        from repro.scenario.suite import SuiteSpec

        base = ScenarioSpec.from_dict(
            {
                "name": "resilience-suite",
                "workload": {"num_tasks": 10, "num_processors": 5},
                "scheduler": {"epsilon": 1},
                "faults": {"mttf_periods": 40.0},
                "runtime": {"num_datasets": 15},
            }
        )
        return SuiteSpec(
            base=base,
            axes={"faults.mttf_periods": [30.0, 60.0]},
            name="resilience-suite",
            trials=2,
            seed=4,
        )

    def test_suite_degrades_to_annotated_partial_result(self):
        from repro.experiments.reporting import render_suite
        from repro.experiments.sweep import run_suite

        result = run_suite(
            self._suite(), jobs=1, chaos="crash=1.0,seed=0", max_retries=0
        )
        assert result.failed_count == len(result.points) == 2
        assert all(point.failed and point.campaign is None for point in result.points)
        assert all(point.stats is None for point in result.points)
        report = render_suite(result, plot=False)
        assert "FAILED point #0" in report and "resilience:" in report
        # NaN metrics, "failed" provenance — a partial never reads complete
        assert any(row[-1] == "failed" for row in result.as_rows())

    def test_suite_failed_points_are_not_cached(self, tmp_path):
        from repro.cache import DiskCache
        from repro.experiments.sweep import run_suite

        cache = DiskCache(tmp_path / "cache")
        run_suite(self._suite(), cache=cache, chaos="crash=1.0,seed=0", max_retries=0)
        clean = run_suite(self._suite(), cache=DiskCache(tmp_path / "cache"))
        assert clean.failed_count == 0 and clean.executed_count == 2

    def test_suite_chaos_recovery_matches_clean_run(self):
        from repro.experiments.sweep import run_suite

        clean = run_suite(self._suite(), jobs=1)
        chaotic = run_suite(
            self._suite(), jobs=1, chaos="crash=0.4,corrupt=0.2,seed=11",
            max_retries=6,
        )
        assert chaotic.failed_count == 0
        for a, b in zip(clean.points, chaotic.points):
            assert a.campaign == b.campaign


class TestServiceResilience:
    def test_drained_pool_sheds_new_submits(self):
        from repro.service.limits import PoolSaturated, WorkerPool

        pool = WorkerPool(workers=1, queue_capacity=1)
        pool.drain()
        assert pool.draining
        with pytest.raises(PoolSaturated, match="draining"):
            pool.submit(lambda: None)

    def test_store_drain_interrupts_suite_jobs(self, tmp_path):
        from repro.cache import DiskCache
        from repro.service import JobStore, WorkerPool
        from repro.service.models import SuiteRequest

        store = JobStore(cache=DiskCache(tmp_path / "cache"), pool=WorkerPool(workers=1))
        store._stop.set()  # drain before the job starts: it must fail honestly
        request = SuiteRequest.from_dict({"suite": self._suite_doc()})
        job = store.submit_suite(request)
        assert job.wait(timeout=30)
        assert job.state == "failed"
        assert "resubmit to resume" in job.error
        store.pool.shutdown(wait=False)

    @staticmethod
    def _suite_doc():
        return {
            "name": "drain-suite",
            "trials": 1,
            "seed": 4,
            "base": {
                "workload": {"num_tasks": 10, "num_processors": 5},
                "scheduler": {"epsilon": 1},
                "faults": {"mttf_periods": 40.0},
                "runtime": {"num_datasets": 15},
            },
            "axes": {"faults.mttf_periods": [30.0, 60.0]},
        }


class TestCliResilience:
    def test_cache_ls_shows_quarantine_row(self, tmp_path, capsys):
        from repro.cache import DiskCache
        from repro.cli import main

        cache = DiskCache(tmp_path / "cache")
        cache.put("a" * 64, {"ok": True})
        cache.put("b" * 64, {"ok": True})
        # corrupt one entry on disk; the next read quarantines it
        path = next(p for p in (tmp_path / "cache").rglob("*.pkl"))
        path.write_bytes(b"garbage")
        fresh = DiskCache(tmp_path / "cache")
        for key in ("a" * 64, "b" * 64):
            fresh.get(key)
        assert fresh.stats.quarantined == 1
        assert main(["cache", "ls", "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "quarantine (1 corrupted)" in out

    def test_runtime_chaos_flag_recovers(self, tmp_path, capsys):
        from repro.cli import main
        from repro.scenario.suite import SuiteSpec

        # a campaign is a suite with zero axes
        path = tmp_path / "campaign.json"
        SuiteSpec(
            base=TestCampaignResilience()._spec(), axes={}, trials=2, seed=0
        ).save(path)
        args = ["suite", "run", str(path), "--no-cache"]
        assert main(args) == 0
        clean = capsys.readouterr().out
        assert (
            main(args + ["--chaos", "crash=0.4,seed=11", "--max-retries", "6"])
            == 0
        )
        chaotic = capsys.readouterr().out
        assert "resilience:" in chaotic  # the chaos did strike
        table = clean.index("grid points")
        assert chaotic[chaotic.index("grid points"):] == clean[table:]
