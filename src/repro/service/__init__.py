"""Scheduling-as-a-service: the HTTP front end over Session / SuiteSpec.

The service is three small layers over the existing engine, none of which
import a web framework:

* :mod:`repro.service.models` — request validation (the spec schema's own
  errors, surfaced as HTTP 422) and result documents carrying the canonical
  content-hashed ``result_key`` / ``campaign_key`` identity;
* :mod:`repro.service.jobs` — the async job store: jobs keyed by content
  hash, so identical re-submits attach or hit the cache instead of
  re-executing; progress events derived from a :class:`~repro.obs.probe.
  Probe`;
* :mod:`repro.service.app` — the WSGI app (stdlib-servable, ASGI adapter
  included) and :mod:`repro.service.limits` — bounded worker pool with
  shed-early 429 admission plus a circuit breaker.

Start one from the CLI (``repro-streaming serve``) or embed it::

    from repro.cache.disk import open_cache
    from repro.service import JobStore, ServiceApp, WorkerPool, make_threaded_server

    store = JobStore(cache=open_cache(None), pool=WorkerPool(workers=2))
    server = make_threaded_server(ServiceApp(store), "127.0.0.1", 8000)
    server.serve_forever()

See ``docs/service.md`` for the endpoint reference and a curl walkthrough.
"""

from repro.service.app import ServiceApp, make_threaded_server
from repro.service.jobs import Job, JobProbe, JobStore
from repro.service.limits import CircuitBreaker, CircuitOpen, PoolSaturated, WorkerPool
from repro.service.models import (
    ScenarioRequest,
    SuiteRequest,
    scenario_result_key,
    suite_result_key,
    suite_result_payload,
)

__all__ = [
    "ServiceApp",
    "make_threaded_server",
    "Job",
    "JobProbe",
    "JobStore",
    "WorkerPool",
    "PoolSaturated",
    "CircuitBreaker",
    "CircuitOpen",
    "ScenarioRequest",
    "SuiteRequest",
    "scenario_result_key",
    "suite_result_key",
    "suite_result_payload",
]
