"""The scheduling service: identity, admission, jobs and the WSGI surface.

The acceptance bar (mirrors docs/service.md): a scenario submitted over the
service is bit-identical to ``Session(...).run_online()`` for the same spec
and seed and carries the same ``result_key``; an identical re-submit is
served from cache with ``executed: 0``; a saturated worker pool sheds with
429 + ``Retry-After`` instead of queueing; invalid specs surface as 422 with
the CLI's own close-match validation message.
"""

from __future__ import annotations

import io
import json
import threading

import pytest

from repro.api import Session
from repro.cache.disk import DiskCache, NullCache
from repro.exceptions import SpecificationError
from repro.scenario.spec import ScenarioSpec
from repro.service import (
    CircuitBreaker,
    CircuitOpen,
    JobStore,
    PoolSaturated,
    ScenarioRequest,
    ServiceApp,
    SuiteRequest,
    WorkerPool,
)
from repro.service.models import (
    jsonable,
    scenario_result_key,
    suite_result_payload,
    trace_fingerprint,
)

SPEC = {
    "name": "svc-test",
    "workload": {"num_tasks": 10, "num_processors": 4},
    "scheduler": {"epsilon": 1},
    "faults": {"mttf_periods": 60.0},
    "runtime": {"num_datasets": 25},
}

SUITE = {
    "name": "svc-suite",
    "trials": 2,
    "base": {
        "workload": {"num_tasks": 8, "num_processors": 4},
        "runtime": {"num_datasets": 15},
    },
    "axes": {"workload.num_processors": [3, 4]},
}


def make_app(tmp_path, workers=2, queue_capacity=4, **store_kwargs) -> ServiceApp:
    return ServiceApp(
        JobStore(
            cache=DiskCache(tmp_path / "cache"),
            pool=WorkerPool(workers=workers, queue_capacity=queue_capacity),
            **store_kwargs,
        )
    )


def call(app, method, path, body=None):
    """Drive the WSGI callable directly: (status_code, payload, headers)."""
    raw = json.dumps(body).encode() if body is not None else b""
    environ = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path.partition("?")[0],
        "QUERY_STRING": path.partition("?")[2],
        "CONTENT_LENGTH": str(len(raw)),
        "wsgi.input": io.BytesIO(raw),
    }
    captured = {}

    def start_response(status, headers):
        captured["status"] = int(status.split(" ", 1)[0])
        captured["headers"] = dict(headers)

    chunks = app(environ, start_response)
    return captured["status"], json.loads(b"".join(chunks)), captured["headers"]


def submit_and_wait(app, body, route="/v1/scenarios", timeout=60):
    status, payload, _ = call(app, "POST", route, body)
    assert status in (200, 202), payload
    assert app.jobs.get(payload["job"]).wait(timeout)
    return payload


# ----------------------------------------------------------------- models
class TestModels:
    def test_jsonable_sanitizes_nan_inf_tuples(self):
        value = {"a": float("nan"), "b": (1, 2), "c": [float("inf"), {"d": -float("inf")}]}
        assert jsonable(value) == {"a": None, "b": [1, 2], "c": [None, {"d": None}]}

    def test_scenario_request_echoes_the_cache_key_derivation(self):
        request = ScenarioRequest.from_dict({"scenario": SPEC, "seed": 5})
        assert request.result_key == scenario_result_key(
            ScenarioSpec.from_dict(SPEC), 5
        )
        assert ScenarioRequest.from_dict({"scenario": SPEC}).seed == 0

    @pytest.mark.parametrize(
        "body, fragment",
        [
            ({"scenari": SPEC}, "did you mean 'scenario'"),
            ({"scenario": SPEC, "seed": -1}, "non-negative"),
            ({"scenario": SPEC, "seed": 1.5}, "non-negative"),
            ({}, "must carry a 'scenario' key"),
            ({"scenario": {"workload": {"num_taskz": 3}}}, "did you mean 'num_tasks'"),
            (
                {"scenario": {"scheduler": {"options": {"enable_rul1": True}}}},
                "did you mean 'enable_rule1'",
            ),
        ],
    )
    def test_scenario_request_validation_is_actionable(self, body, fragment):
        with pytest.raises(SpecificationError) as err:
            ScenarioRequest.from_dict(body)
        assert fragment in str(err.value)

    @pytest.mark.parametrize(
        "body, fragment",
        [
            ({"suite": SUITE, "trials": 0}, "trials must be an int >= 1"),
            ({"suite": SUITE, "reduce": "stats"}, "unknown suite request key 'reduce'"),
            ({"suit": SUITE}, "did you mean 'suite'"),
        ],
    )
    def test_suite_request_validation_is_actionable(self, body, fragment):
        with pytest.raises(SpecificationError) as err:
            SuiteRequest.from_dict(body)
        assert fragment in str(err.value)

    def test_suite_request_overrides_default_to_the_suite_document(self):
        request = SuiteRequest.from_dict({"suite": SUITE})
        assert request.run_trials == SUITE["trials"]
        override = SuiteRequest.from_dict({"suite": SUITE, "trials": 5, "seed": 9})
        assert (override.run_trials, override.run_seed) == (5, 9)
        assert override.result_key != request.result_key


# ----------------------------------------------------------------- limits
class TestWorkerPool:
    def test_sheds_beyond_capacity_instead_of_queueing(self):
        pool = WorkerPool(workers=1, queue_capacity=1)
        release = threading.Event()
        pool.submit(release.wait)  # occupies the one worker
        pool.submit(release.wait)  # occupies the one queue slot
        with pytest.raises(PoolSaturated) as err:
            pool.submit(release.wait)
        assert err.value.retry_after >= 1
        assert pool.shed_count == 1
        release.set()
        pool.shutdown()

    def test_slots_free_after_completion(self):
        pool = WorkerPool(workers=1, queue_capacity=0)
        assert pool.submit(lambda: 41 + 1).result(5) == 42
        # the slot is released; a new submit is admitted again
        assert pool.submit(lambda: "ok").result(5) == "ok"
        pool.shutdown()

    def test_retry_after_tracks_recent_durations(self):
        clock = [0.0]
        pool = WorkerPool(workers=1, queue_capacity=0, clock=lambda: clock[0])
        future = pool.submit(lambda: clock.__setitem__(0, 7.0))
        future.result(5)
        assert pool.retry_after_hint() == 7
        pool.shutdown()

    def test_rejects_nonsense_bounds(self):
        with pytest.raises(ValueError):
            WorkerPool(workers=0)
        with pytest.raises(ValueError):
            WorkerPool(workers=1, queue_capacity=-1)


class TestCircuitBreaker:
    def test_trips_after_threshold_and_recovers_via_half_open(self):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=2, cooldown=10, clock=lambda: clock[0])
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        with pytest.raises(CircuitOpen) as err:
            breaker.check()
        assert err.value.retry_after == 10
        clock[0] = 10.0
        assert breaker.state == "half-open"
        breaker.check()  # half-open admits the probe
        breaker.record_success()
        assert breaker.state == "closed"

    def test_half_open_failure_reopens_for_a_full_cooldown(self):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, cooldown=5, clock=lambda: clock[0])
        breaker.record_failure()
        clock[0] = 5.0
        assert breaker.state == "half-open"
        breaker.record_failure()
        assert breaker.state == "open"
        with pytest.raises(CircuitOpen):
            breaker.check()


# ------------------------------------------------------------------- jobs
class TestJobStore:
    def test_result_is_bit_identical_to_a_direct_session_run(self, tmp_path):
        app = make_app(tmp_path)
        payload = submit_and_wait(app, {"scenario": SPEC, "seed": 3})
        status, result, _ = call(app, "GET", f"/v1/results/{payload['result_key']}")
        assert status == 200
        direct = Session(ScenarioSpec.from_dict(SPEC)).run_online(seed=3)
        assert result["fingerprint"] == trace_fingerprint(direct.trace)
        assert result["result_key"] == scenario_result_key(
            ScenarioSpec.from_dict(SPEC), 3
        )
        assert result["summary"]["completed"] == direct.summary()["completed"]

    def test_identical_resubmit_is_served_from_cache_with_zero_executed(
        self, tmp_path
    ):
        app = make_app(tmp_path)
        first = submit_and_wait(app, {"scenario": SPEC, "seed": 3})
        status, second, _ = call(
            app, "POST", "/v1/scenarios", {"scenario": SPEC, "seed": 3}
        )
        assert status == 200  # terminal immediately, not 202
        assert second["state"] == "done"
        assert second["cached"] is True
        assert second["executed"] == 0
        assert second["result_key"] == first["result_key"]

    def test_resubmit_while_in_flight_attaches_to_the_running_job(self, tmp_path):
        gate = threading.Event()
        store = JobStore(cache=DiskCache(tmp_path), pool=WorkerPool(workers=1))
        original_run = store._run_scenario

        def gated_run(job, request):
            gate.wait(10)
            return original_run(job, request)

        store._run_scenario = gated_run
        request = ScenarioRequest.from_dict({"scenario": SPEC, "seed": 1})
        first = store.submit_scenario(request)
        second = store.submit_scenario(request)
        assert second is first  # attached, not a second execution
        gate.set()
        assert first.wait(60)
        assert first.state == "done" and first.executed > 0
        store.pool.shutdown()

    def test_results_survive_a_service_restart_via_the_shared_cache(self, tmp_path):
        first_app = make_app(tmp_path)
        payload = submit_and_wait(first_app, {"scenario": SPEC, "seed": 3})
        # a fresh store over the same cache dir: no in-memory jobs at all
        second_app = make_app(tmp_path)
        status, result, _ = call(
            second_app, "GET", f"/v1/results/{payload['result_key']}"
        )
        assert status == 200
        status, resubmit, _ = call(
            second_app, "POST", "/v1/scenarios", {"scenario": SPEC, "seed": 3}
        )
        assert resubmit["cached"] is True and resubmit["executed"] == 0

    def test_failed_job_publishes_the_error_and_is_retried_on_resubmit(
        self, tmp_path
    ):
        # an unschedulable scenario: period so tight no schedule exists
        bad = dict(SPEC, scheduler={"period": 1e-9, "fallback": False})
        app = make_app(tmp_path)
        status, payload, _ = call(
            app, "POST", "/v1/scenarios", {"scenario": bad, "seed": 0}
        )
        assert status in (200, 202)
        job = app.jobs.get(payload["job"])
        assert job.wait(60)
        assert job.state == "failed"
        status, st, _ = call(app, "GET", f"/v1/jobs/{payload['job']}")
        assert st["state"] == "failed" and "error" in st
        # the result was never published
        status, _, _ = call(app, "GET", f"/v1/results/{payload['result_key']}")
        assert status == 404

    def test_suite_jobs_reuse_the_point_cache_of_suite_run(self, tmp_path):
        from repro.experiments.sweep import run_suite
        from repro.scenario.suite import SuiteSpec

        cache = DiskCache(tmp_path / "cache")
        # a CLI-style suite run warms the per-point campaign entries
        direct = run_suite(SuiteSpec.from_dict(SUITE), cache=cache)
        assert direct.executed_count == 2
        app = ServiceApp(JobStore(cache=cache, pool=WorkerPool()))
        payload = submit_and_wait(app, {"suite": SUITE}, route="/v1/suites")
        status, st, _ = call(app, "GET", f"/v1/jobs/{payload['job']}")
        # every point came from the cache the CLI populated
        assert st["state"] == "done" and st["executed"] == 0
        status, result, _ = call(app, "GET", f"/v1/results/{payload['result_key']}")
        assert result["cached_points"] == 2 and result["executed_points"] == 0
        assert {point["source"] for point in result["points"]} == {"cache"}

    def test_suite_result_matches_the_cli_json_report(self, tmp_path):
        from repro.experiments.sweep import run_suite
        from repro.scenario.suite import SuiteSpec

        app = make_app(tmp_path)
        payload = submit_and_wait(app, {"suite": SUITE}, route="/v1/suites")
        _, service_doc, _ = call(app, "GET", f"/v1/results/{payload['result_key']}")
        direct = run_suite(SuiteSpec.from_dict(SUITE), cache=NullCache())
        cli_doc = suite_result_payload(direct, key=payload["result_key"])
        # identical per-point numbers and identical campaign keys; only the
        # cache-provenance fields may differ between the two transports
        for service_point, cli_point in zip(service_doc["points"], cli_doc["points"]):
            assert service_point["stats"] == cli_point["stats"]
            assert service_point["campaign_key"] == cli_point["campaign_key"]
        assert service_doc["result_key"] == cli_doc["result_key"]

    def test_null_cache_resubmit_attaches_to_the_done_job(self, tmp_path):
        app = ServiceApp(JobStore(cache=NullCache(), pool=WorkerPool()))
        first = submit_and_wait(app, {"scenario": SPEC, "seed": 2})
        status, second, _ = call(
            app, "POST", "/v1/scenarios", {"scenario": SPEC, "seed": 2}
        )
        assert second["state"] == "done"
        assert second["result_key"] == first["result_key"]

    def test_event_stream_is_monotonic_and_incremental(self, tmp_path):
        app = make_app(tmp_path, progress_every=5)
        payload = submit_and_wait(app, {"scenario": SPEC, "seed": 3})
        _, events, _ = call(app, "GET", f"/v1/jobs/{payload['job']}/events")
        seqs = [event["seq"] for event in events["events"]]
        assert seqs == sorted(seqs) == list(range(len(seqs)))
        kinds = [event["event"] for event in events["events"]]
        assert kinds[0] == "running" and kinds[-1] == "done"
        assert "progress" in kinds
        # incremental poll: only events after the cursor come back
        _, tail, _ = call(
            app, "GET", f"/v1/jobs/{payload['job']}/events?after={seqs[-2]}"
        )
        assert [event["seq"] for event in tail["events"]] == [seqs[-1]]


# -------------------------------------------------------------------- app
class TestApp:
    def test_saturated_pool_returns_429_with_retry_after(self, tmp_path):
        app = make_app(tmp_path, workers=1, queue_capacity=0)
        gate = threading.Event()
        app.jobs.pool.submit(gate.wait)  # fill the only slot out-of-band
        try:
            status, payload, headers = call(
                app, "POST", "/v1/scenarios", {"scenario": SPEC}
            )
            assert status == 429
            assert payload["error"]["kind"] == "saturated"
            assert int(headers["Retry-After"]) >= 1
            # the shed submit left no ghost job behind
            assert app.jobs.counts() == {
                "queued": 0, "running": 0, "done": 0, "failed": 0,
            }
        finally:
            gate.set()

    def test_shed_resubmit_is_admitted_once_the_pool_frees(self, tmp_path):
        app = make_app(tmp_path, workers=1, queue_capacity=0)
        gate = threading.Event()
        blocker = app.jobs.pool.submit(gate.wait)
        status, _, _ = call(app, "POST", "/v1/scenarios", {"scenario": SPEC})
        assert status == 429
        gate.set()
        blocker.result(5)
        payload = submit_and_wait(app, {"scenario": SPEC})
        assert payload["state"] in ("queued", "running", "done")

    def test_open_circuit_returns_503_with_retry_after(self, tmp_path):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=30)
        app = make_app(tmp_path, breaker=breaker)
        breaker.record_failure()
        status, payload, headers = call(
            app, "POST", "/v1/scenarios", {"scenario": SPEC}
        )
        assert status == 503
        assert payload["error"]["kind"] == "circuit-open"
        assert int(headers["Retry-After"]) >= 1

    def test_invalid_spec_is_422_with_the_cli_validation_message(self, tmp_path):
        app = make_app(tmp_path)
        status, payload, _ = call(
            app,
            "POST",
            "/v1/scenarios",
            {"scenario": {"workload": {"num_taskz": 3}}},
        )
        assert status == 422
        assert payload["error"]["kind"] == "invalid-spec"
        assert "did you mean 'num_tasks'" in payload["error"]["message"]

    def test_checkpoint_false_is_422_naming_the_field(self, tmp_path):
        app = make_app(tmp_path)
        status, payload, _ = call(
            app,
            "POST",
            "/v1/scenarios",
            {"scenario": {**SPEC, "runtime": {**SPEC["runtime"], "checkpoint": False}}},
        )
        assert status == 422
        assert payload["error"]["kind"] == "invalid-spec"
        assert "runtime.checkpoint" in payload["error"]["message"]

    def test_fast_forward_false_is_422_naming_the_field(self, tmp_path):
        app = make_app(tmp_path)
        status, payload, _ = call(
            app,
            "POST",
            "/v1/scenarios",
            {"scenario": {**SPEC, "runtime": {**SPEC["runtime"], "fast_forward": False}}},
        )
        assert status == 422
        assert payload["error"]["kind"] == "invalid-spec"
        assert "runtime.fast_forward" in payload["error"]["message"]

    def test_suite_body_with_reduce_is_422_naming_the_key(self, tmp_path):
        app = make_app(tmp_path)
        status, payload, _ = call(
            app, "POST", "/v1/suites", {"suite": SUITE, "reduce": "stats"}
        )
        assert status == 422
        assert payload["error"]["kind"] == "invalid-spec"
        assert "'reduce'" in payload["error"]["message"]

    def test_malformed_json_is_400(self, tmp_path):
        app = make_app(tmp_path)
        raw = b"{not json"
        environ = {
            "REQUEST_METHOD": "POST",
            "PATH_INFO": "/v1/scenarios",
            "CONTENT_LENGTH": str(len(raw)),
            "wsgi.input": io.BytesIO(raw),
        }
        captured = {}
        app(environ, lambda s, h: captured.setdefault("status", s))
        assert captured["status"].startswith("400")

    def test_unknown_routes_and_methods(self, tmp_path):
        app = make_app(tmp_path)
        assert call(app, "GET", "/v1/nope")[0] == 404
        assert call(app, "DELETE", "/v1/healthz")[0] == 405
        assert call(app, "GET", "/v1/jobs/" + "0" * 64)[0] == 404
        assert call(app, "GET", "/v1/results/" + "0" * 64)[0] == 404

    def test_healthz_and_metrics_reflect_traffic(self, tmp_path):
        app = make_app(tmp_path)
        submit_and_wait(app, {"scenario": SPEC, "seed": 3})
        call(app, "POST", "/v1/scenarios", {"scenario": SPEC, "seed": 3})
        _, health, _ = call(app, "GET", "/v1/healthz")
        assert health["status"] == "ok"
        assert health["jobs"]["done"] >= 1
        assert health["engine"]
        _, metrics, _ = call(app, "GET", "/v1/metrics")
        assert metrics["counters"]["jobs.submitted"] == 2
        assert metrics["counters"]["jobs.cache_hits"] == 1
        assert metrics["counters"]["http.requests.total"] >= 4

    def test_responses_are_strict_json_even_with_nan_stats(self, tmp_path):
        # a suite whose points lose every dataset: mean latency is NaN
        doomed = {
            "name": "doomed",
            "trials": 1,
            "base": {
                "workload": {"num_tasks": 6, "num_processors": 3},
                "faults": {"mttf_periods": 0.05, "mttr_periods": None},
                "runtime": {"num_datasets": 8, "max_rebuilds": 0},
            },
            "axes": {"workload.num_processors": [3, 4]},
        }
        app = make_app(tmp_path)
        status, payload, _ = call(app, "POST", "/v1/suites", {"suite": doomed})
        if status in (200, 202):  # tolerate scheduling failures: job may fail
            job = app.jobs.get(payload["job"])
            assert job.wait(60)
            if job.state == "done":
                _, result, _ = call(
                    app, "GET", f"/v1/results/{payload['result_key']}"
                )
                json.dumps(result, allow_nan=False)  # must not raise
