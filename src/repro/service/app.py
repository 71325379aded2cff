"""The framework-free HTTP surface of the scheduling service.

One pure-WSGI application — a routing table of ``(method, compiled path)``
pairs over plain functions — servable by anything that speaks WSGI.  The
stdlib is enough::

    from wsgiref.simple_server import make_server
    from repro.service import ServiceApp
    make_server("127.0.0.1", 8000, ServiceApp()).serve_forever()

(Use :func:`make_threaded_server` instead: it builds a *threaded* WSGI server
so status polls keep answering while jobs run.)  No framework is required
or imported.

Routes (all JSON in, JSON out):

=========================================  ==================================
``POST /v1/scenarios``                     submit ``{"scenario": {...},
                                           "seed": 0}`` → 202 + job document
``POST /v1/suites``                        submit ``{"suite": {...}, "seed",
                                           "trials"}`` → 202 + job
``GET /v1/jobs/{id}``                      job status (state, cached,
                                           executed, result_key)
``GET /v1/jobs/{id}/events``               progress events; ``?after=<seq>``
                                           returns only newer ones
``GET /v1/results/{key}``                  the published result document
``GET /v1/healthz``                        liveness + engine version + jobs
``GET /v1/metrics``                        the service MetricsRegistry
=========================================  ==================================

Error mapping: malformed JSON → 400; spec/schema violations → **422** with
the exact :class:`~repro.exceptions.SpecificationError` message (field path
and close-match suggestions — the same text the CLI prints to stderr);
unknown job/result → 404; pool saturated → **429 + Retry-After**; circuit
open → 503 + Retry-After.
"""

from __future__ import annotations

import json
import re
import time
from typing import Callable

from repro.exceptions import SpecificationError
from repro.obs.metrics import MetricsRegistry
from repro.service.jobs import JobStore
from repro.service.limits import CircuitOpen, PoolSaturated, WorkerPool
from repro.service.models import (
    SERVICE_SCHEMA,
    ScenarioRequest,
    SuiteRequest,
    engine_version,
    error_payload,
)

__all__ = ["ServiceApp", "make_threaded_server"]

_STATUS_TEXT = {
    200: "200 OK",
    202: "202 Accepted",
    400: "400 Bad Request",
    404: "404 Not Found",
    405: "405 Method Not Allowed",
    422: "422 Unprocessable Entity",
    429: "429 Too Many Requests",
    500: "500 Internal Server Error",
    503: "503 Service Unavailable",
}

#: request bodies beyond this are refused (a suite document is kilobytes;
#: megabytes means a client bug or abuse).
MAX_BODY_BYTES = 8 * 1024 * 1024


class _HTTPError(Exception):
    def __init__(self, status: int, message: str, kind: str = "error",
                 retry_after: int | None = None):
        super().__init__(message)
        self.status = status
        self.kind = kind
        self.retry_after = retry_after


class ServiceApp:
    """The WSGI callable: routes requests into a :class:`JobStore`.

    All collaborators are injectable (tests build the app over a tmp-path
    cache and a one-worker pool); the defaults give a working in-memory
    service with no persistent cache.
    """

    def __init__(self, jobs: JobStore | None = None):
        if jobs is None:
            from repro.cache.disk import NullCache

            jobs = JobStore(cache=NullCache(), pool=WorkerPool())
        self.jobs = jobs
        self.metrics = MetricsRegistry()
        if jobs.metrics is None:
            # suite jobs count their resilience events (retries, worker
            # crashes, resumed trials) into the service registry.
            jobs.metrics = self.metrics
        self.started_at = time.time()
        self._routes: list[tuple[str, re.Pattern, Callable]] = [
            ("POST", re.compile(r"^/v1/scenarios$"), self._post_scenario),
            ("POST", re.compile(r"^/v1/suites$"), self._post_suite),
            ("GET", re.compile(r"^/v1/jobs/(?P<job_id>[0-9a-f]{64})$"), self._get_job),
            ("GET", re.compile(r"^/v1/jobs/(?P<job_id>[0-9a-f]{64})/events$"),
             self._get_events),
            ("GET", re.compile(r"^/v1/results/(?P<key>[0-9a-f]{64})$"),
             self._get_result),
            ("GET", re.compile(r"^/v1/healthz$"), self._get_healthz),
            ("GET", re.compile(r"^/v1/metrics$"), self._get_metrics),
        ]

    # ------------------------------------------------------------------- WSGI
    def __call__(self, environ, start_response):
        method = environ.get("REQUEST_METHOD", "GET").upper()
        path = environ.get("PATH_INFO", "/")
        self.metrics.inc("http.requests.total")
        try:
            status, payload, headers = self._dispatch(method, path, environ)
        except _HTTPError as exc:
            status = exc.status
            payload = error_payload(exc.status, str(exc), kind=exc.kind)
            headers = {}
            if exc.retry_after is not None:
                headers["Retry-After"] = str(exc.retry_after)
        except Exception as exc:  # never leak a traceback as a 500 page
            status = 500
            payload = error_payload(500, f"{type(exc).__name__}: {exc}")
            headers = {}
        body = json.dumps(payload, allow_nan=False).encode()
        self.metrics.inc(f"http.responses.{status}")
        start_response(
            _STATUS_TEXT.get(status, f"{status} Error"),
            [
                ("Content-Type", "application/json"),
                ("Content-Length", str(len(body))),
                *headers.items(),
            ],
        )
        return [body]

    def _dispatch(self, method: str, path: str, environ):
        matched_path = False
        for route_method, pattern, handler in self._routes:
            match = pattern.match(path)
            if match is None:
                continue
            matched_path = True
            if route_method == method:
                return handler(environ, **match.groupdict())
        if matched_path:
            raise _HTTPError(405, f"method {method} not allowed on {path}")
        raise _HTTPError(404, f"no route {path}", kind="not-found")

    def _read_json(self, environ) -> dict:
        try:
            length = int(environ.get("CONTENT_LENGTH") or 0)
        except ValueError:
            raise _HTTPError(400, "invalid Content-Length header")
        if length > MAX_BODY_BYTES:
            raise _HTTPError(400, f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = environ["wsgi.input"].read(length) if length else b""
        if not raw:
            raise _HTTPError(400, "empty request body, expected a JSON object")
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise _HTTPError(400, f"request body is not valid JSON: {exc}")

    # ----------------------------------------------------------------- routes
    def _submit(self, environ, request_cls, submit):
        data = self._read_json(environ)
        try:
            request = request_cls.from_dict(data)
        except SpecificationError as exc:
            # the same validation text the CLI prints on exit 2.
            raise _HTTPError(422, str(exc), kind="invalid-spec")
        try:
            job = submit(request)
        except PoolSaturated as exc:
            self.metrics.inc("jobs.rejected")
            raise _HTTPError(429, str(exc), kind="saturated",
                             retry_after=exc.retry_after)
        except CircuitOpen as exc:
            raise _HTTPError(503, str(exc), kind="circuit-open",
                             retry_after=exc.retry_after)
        self.metrics.inc("jobs.submitted")
        if job.cached:
            self.metrics.inc("jobs.cache_hits")
        payload = {
            "schema": SERVICE_SCHEMA,
            "engine": engine_version(),
            **job.as_dict(),
        }
        return (200 if job.done else 202), payload, {}

    def _post_scenario(self, environ):
        return self._submit(environ, ScenarioRequest, self.jobs.submit_scenario)

    def _post_suite(self, environ):
        return self._submit(environ, SuiteRequest, self.jobs.submit_suite)

    def _get_job(self, environ, job_id: str):
        job = self.jobs.get(job_id)
        if job is None:
            raise _HTTPError(404, f"no job {job_id}", kind="not-found")
        return 200, {"schema": SERVICE_SCHEMA, **job.as_dict()}, {}

    def _get_events(self, environ, job_id: str):
        job = self.jobs.get(job_id)
        if job is None:
            raise _HTTPError(404, f"no job {job_id}", kind="not-found")
        query = environ.get("QUERY_STRING", "")
        after = -1
        for part in query.split("&"):
            if part.startswith("after="):
                try:
                    after = int(part.partition("=")[2])
                except ValueError:
                    raise _HTTPError(400, f"after must be an integer, got {part!r}")
        events = job.events_after(after)
        return 200, {
            "schema": SERVICE_SCHEMA,
            "job": job.id,
            "state": job.state,
            "events": events,
        }, {}

    def _get_result(self, environ, key: str):
        result = self.jobs.get_result(key)
        if result is None:
            raise _HTTPError(
                404,
                f"no result {key} (not computed on this engine version, or "
                f"evicted from the cache)",
                kind="not-found",
            )
        return 200, result, {}

    def _get_healthz(self, environ):
        return 200, {
            "schema": SERVICE_SCHEMA,
            "status": "ok",
            "engine": engine_version(),
            "uptime": round(time.time() - self.started_at, 3),
            "jobs": self.jobs.counts(),
            "pool": {
                "inflight": self.jobs.pool.inflight,
                "capacity": self.jobs.pool.capacity,
                "shed": self.jobs.pool.shed_count,
            },
        }, {}

    def _get_metrics(self, environ):
        return 200, {"schema": SERVICE_SCHEMA, **self.metrics.as_dict()}, {}


def make_threaded_server(app: ServiceApp, host: str = "127.0.0.1", port: int = 0):
    """A ``wsgiref`` server with a thread per request.

    Plain ``wsgiref.simple_server`` is single-threaded — a poll would block
    behind a running submit handler.  Mixing in
    :class:`socketserver.ThreadingMixIn` gives each request its own thread;
    actual job execution still runs on the bounded worker pool, so this adds
    request concurrency without unbounded work concurrency.
    """
    import socketserver
    from wsgiref.simple_server import WSGIRequestHandler, WSGIServer

    class ThreadingWSGIServer(socketserver.ThreadingMixIn, WSGIServer):
        daemon_threads = True

    class QuietHandler(WSGIRequestHandler):
        def log_message(self, format, *args):  # stderr noise off; metrics on
            pass

    server = ThreadingWSGIServer((host, port), QuietHandler)
    server.set_app(app)
    return server
