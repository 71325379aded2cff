"""The async job store: content-hashed jobs over Session / run_suite.

A job's id **is** its result key — the content hash of ``(spec, seed,
trials, engine version)`` from :mod:`repro.service.models`.  That one
decision gives the service its semantics for free:

* an identical re-submit while the job runs *attaches* to the in-flight job
  (same id, same eventual result) instead of running the work twice;
* an identical re-submit after completion — even across a service restart —
  is answered from the :class:`~repro.cache.disk.DiskCache` with
  ``executed: 0``, bit-identical to the original execution by the cache's
  own contract;
* two service instances sharing a cache directory share results.

Execution happens on the bounded :class:`~repro.service.limits.WorkerPool`
(shed-early admission; see :mod:`repro.service.limits`).  A scenario job runs
in one child process forked when the job starts and joined before it
publishes, so a CPU-bound run never holds the server's GIL: the child streams
its events and its outcome back over a pipe (:func:`scenario_child`) and the
pool thread relays them into the job.  Suite jobs run in the pool thread:
they fan out through ``exec_jobs`` processes already and observe the store's
stop event at trial boundaries.  Progress events are
produced by a :class:`JobProbe` — the same :class:`~repro.obs.probe.Probe`
contract the CLI's ``--metrics`` flag uses, throttled so a million-dataset
run emits hundreds of events, not a million.  Probes are observation-only:
the trace a probed run produces is bit-identical to a bare run, so attaching
one costs nothing in result identity.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import TYPE_CHECKING

# Imported here, not in the forked child: every scenario job's child finds
# the engine already loaded instead of importing it once per job.
from repro.api import Session
from repro.cache.disk import MISS
from repro.obs.probe import Probe
from repro.service.models import (
    ScenarioRequest,
    SuiteRequest,
    jsonable,
    scenario_result_payload,
    suite_result_payload,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.limits import WorkerPool

__all__ = ["JobProbe", "Job", "JobStore", "JOB_STATES", "scenario_child"]

#: lifecycle of one job (terminal states: ``done`` | ``failed``).
JOB_STATES = ("queued", "running", "done", "failed")

#: seconds the relay waits for a message before it checks whether the child
#: died; a child that exits silently fails its job within this.
RELAY_POLL_S = 0.2

#: the signals a terminal or a service manager sends to a whole process
#: group; a scenario child is forked with them blocked, so it never sees them.
_GROUP_SIGNALS = (signal.SIGINT, signal.SIGTERM)


class _JobFailed(Exception):
    """A job failure whose message is already the published error text."""


def _error_text(exc: Exception) -> str:
    return str(exc) if isinstance(exc, _JobFailed) else f"{type(exc).__name__}: {exc}"


class JobProbe(Probe):
    """Derive client-visible progress events from the runtime's probe stream.

    Throttled: one ``progress`` event per *every_datasets* sealed data sets
    (plus one final flush), one event per logged runtime decision (crashes and
    rebuilds are rare by construction) and one per closed downtime span.
    The probe is pure observation: the trace stays bit-identical to an
    unprobed run.
    """

    def __init__(self, job, every_datasets: int = 200):
        # *job* is anything with ``emit(kind, **data)``: a :class:`Job`, or
        # the pipe writer of a forked scenario run.
        self._job = job
        self._every = max(1, int(every_datasets))
        self._datasets = 0
        self._completed = 0

    def _flush_progress(self) -> None:
        self._job.emit(
            "progress", datasets=self._datasets, completed=self._completed
        )

    def on_dataset(
        self, index: int, release: float, completion: float | None, status: str
    ) -> None:
        self._datasets += 1
        if completion is not None:
            self._completed += 1
        if self._datasets % self._every == 0:
            self._flush_progress()

    def on_runtime_event(self, event) -> None:
        self._job.emit(
            "runtime-event",
            at=event.time,
            event=event.kind,
            processor=event.processor,
        )

    def on_span(self, kind: str, start: float, end: float) -> None:
        self._job.emit("span", span=kind, start=start, end=end)

    def finish(self) -> None:
        """Flush the final progress sample (exact totals)."""
        if self._datasets:
            self._flush_progress()


@dataclass
class Job:
    """One submitted unit of work, identified by its result key.

    *events* is an append-only, monotonically ``seq``-numbered list — clients
    poll ``GET /v1/jobs/{id}/events?after=<seq>`` and receive only what they
    have not seen.  All mutation goes through the owning :class:`JobStore`'s
    worker thread plus the probe callbacks; the lock keeps reads consistent.
    """

    id: str
    kind: str  # "scenario" | "suite"
    state: str = "queued"
    #: whether the result was served from the cache without executing.
    cached: bool = False
    #: datasets (scenario) or suite points (suite) actually executed.
    executed: int = 0
    error: str | None = None
    result: dict | None = None
    submitted_at: float = field(default_factory=time.time)
    finished_at: float | None = None
    events: list[dict] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _done: threading.Event = field(default_factory=threading.Event, repr=False)

    def emit(self, kind: str, **data) -> None:
        with self._lock:
            self.events.append(
                {"seq": len(self.events), "event": kind, **jsonable(data)}
            )

    def events_after(self, after: int = -1) -> list[dict]:
        with self._lock:
            return [event for event in self.events if event["seq"] > after]

    def finish(self, *, result: dict, cached: bool, executed: int) -> None:
        with self._lock:
            self.result = result
            self.cached = cached
            self.executed = executed
            self.state = "done"
            self.finished_at = time.time()
        self.emit("done", cached=cached, executed=executed)
        self._done.set()

    def fail(self, message: str) -> None:
        with self._lock:
            self.error = message
            self.state = "failed"
            self.finished_at = time.time()
        self.emit("failed", message=message)
        self._done.set()

    def mark_running(self) -> None:
        with self._lock:
            self.state = "running"
        self.emit("running")

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job reaches a terminal state (tests/clients)."""
        return self._done.wait(timeout)

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def as_dict(self) -> dict:
        """The ``GET /v1/jobs/{id}`` status document."""
        with self._lock:
            payload = {
                "job": self.id,
                "kind": self.kind,
                "state": self.state,
                "cached": self.cached,
                "executed": self.executed,
                "result_key": self.id,
                "num_events": len(self.events),
            }
            if self.error is not None:
                payload["error"] = self.error
            if self.state == "done":
                payload["result_url"] = f"/v1/results/{self.id}"
        return payload


class JobStore:
    """Submit → dedup → (cache probe | execute) → publish, keyed by content.

    The store owns three collaborators: the :class:`DiskCache` (or
    ``NullCache``) holding published result documents, the bounded
    :class:`WorkerPool` running executions, and an optional
    :class:`~repro.service.limits.CircuitBreaker` consulted at submit time.
    ``exec_jobs`` is forwarded to :func:`~repro.experiments.sweep.run_suite`
    as its process-level parallelism (bit-identical at any value).
    """

    def __init__(
        self,
        cache,
        pool: "WorkerPool",
        exec_jobs: int = 1,
        breaker=None,
        progress_every: int = 200,
        max_retries: int = 2,
        trial_timeout: float | None = None,
        chaos=None,
    ):
        self.cache = cache
        self.pool = pool
        self.exec_jobs = max(1, int(exec_jobs))
        self.breaker = breaker
        self.progress_every = progress_every
        self.max_retries = max_retries
        self.trial_timeout = trial_timeout
        self.chaos = chaos
        #: a MetricsRegistry the owning app may attach; resilience events of
        #: suite jobs (retries, worker crashes, ...) are counted into it.
        self.metrics = None
        self._jobs: dict[str, Job] = {}
        self._stop = threading.Event()
        self._lock = threading.Lock()

    def drain(self) -> None:
        """Graceful shutdown: interrupt suite jobs at the next trial boundary.

        Sets the stop event every in-flight :func:`run_suite` observes (its
        completed trials are already checkpointed, so an identical resubmit
        resumes rather than recomputes), then drains the worker pool.
        """
        self._stop.set()
        self.pool.drain()

    # ------------------------------------------------------------------ reads
    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def get_result(self, key: str) -> dict | None:
        """The published result document under *key* (job memory or cache)."""
        job = self.get(key)
        if job is not None and job.result is not None:
            return job.result
        value = self.cache.get(key, expect=dict)
        return None if value is MISS else value

    def counts(self) -> dict:
        with self._lock:
            jobs = list(self._jobs.values())
        summary = {state: 0 for state in JOB_STATES}
        for job in jobs:
            summary[job.state] = summary.get(job.state, 0) + 1
        return summary

    # ---------------------------------------------------------------- submits
    def submit_scenario(self, request: ScenarioRequest) -> Job:
        """Submit one online run; returns its (possibly pre-existing) job."""
        return self._submit(request.result_key, "scenario", self._run_scenario, request)

    def submit_suite(self, request: SuiteRequest) -> Job:
        """Submit one suite run; returns its (possibly pre-existing) job."""
        return self._submit(request.result_key, "suite", self._run_suite, request)

    def _submit(self, key: str, kind: str, runner, request) -> Job:
        if self.breaker is not None:
            self.breaker.check()
        with self._lock:
            existing = self._jobs.get(key)
            if existing is not None and not existing.done:
                # identical re-submit while running: attach to the in-flight
                # job (one execution serves every concurrent submitter).
                return existing
            # done or failed: register a fresh job under the same key before
            # probing the cache, so concurrent identical submits attach to it
            # instead of racing into duplicate executions.
            job = Job(id=key, kind=kind)
            self._jobs[key] = job
        cached = self.cache.get(key, expect=dict)
        if cached is not MISS:
            # re-submit after completion (or a result computed by another
            # instance sharing the cache): served with zero work executed.
            job.emit("cache-hit")
            job.finish(result=cached, cached=True, executed=0)
            return job
        if (
            existing is not None
            and existing.state == "done"
            and existing.result is not None
        ):
            # no persistent cache behind the store (NullCache): the done job
            # itself holds the result — attach rather than re-execute.
            with self._lock:
                self._jobs[key] = existing
            return existing
        try:
            self.pool.submit(self._execute, job, runner, request)
        except BaseException:
            # shed (PoolSaturated) or shutdown: forget the stillborn job so a
            # later re-submit gets a fresh admission decision.
            with self._lock:
                if self._jobs.get(key) is job:
                    del self._jobs[key]
            raise
        return job

    # -------------------------------------------------------------- execution
    def _execute(self, job: Job, runner, request) -> None:
        job.mark_running()
        try:
            result, executed = runner(job, request)
        except Exception as exc:  # publish, never let a worker die silently
            job.fail(_error_text(exc))
            if self.breaker is not None:
                self.breaker.record_failure()
            return
        self.cache.put(job.id, result)
        job.finish(result=result, cached=False, executed=executed)
        if self.breaker is not None:
            self.breaker.record_success()

    def _run_scenario(self, job: Job, request: ScenarioRequest):
        from multiprocessing import Pipe

        # the engine imports numpy.random on first use: import it here, once,
        # so every forked child inherits it instead of paying ~10 ms for it.
        import numpy.random  # noqa: F401

        reader, writer = Pipe(duplex=False)
        parent = os.getpid()
        # fork, not spawn: the child starts with the engine imported, touches
        # no lock another server thread holds and leaves through os._exit.
        # A bare fork, not multiprocessing.Process: a Process is reaped by
        # whichever thread starts the next one, racing this thread's join.
        # The process-group signals stay blocked across the fork, so the
        # child inherits them blocked: Ctrl-C or a service manager's stop
        # lets it finish and publish, as drain() expects of in-flight jobs.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, _GROUP_SIGNALS)
        try:
            pid = os.fork()
            if pid == 0:  # pragma: no cover - the child; never returns
                _scenario_process(reader, writer, request, self.progress_every, parent)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            writer.close()
        try:
            message = _relay(reader, pid, job)
        finally:
            reader.close()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if message is None:
            how = (
                f"killed by signal {signal.Signals(-code).name}"
                if code < 0
                else f"exited with code {code}"
            )
            raise _JobFailed(f"scenario process {how} before it sent a result")
        if message[0] == "failed":
            raise _JobFailed(message[1])
        _, payload, executed = message
        return payload, executed

    def _run_suite(self, job: Job, request: SuiteRequest):
        from repro.experiments.sweep import run_suite

        job.emit(
            "suite-start",
            points=request.suite.num_points,
            trials=request.run_trials,
        )
        result = run_suite(
            request.suite,
            seed=request.seed,
            trials=request.trials,
            jobs=self.exec_jobs,
            cache=self.cache,
            max_retries=self.max_retries,
            trial_timeout=self.trial_timeout,
            resume=getattr(self.cache, "enabled", False),
            chaos=self.chaos,
            stop=self._stop,
        )
        if self.metrics is not None:
            for name, count in result.resilience.items():
                if count:
                    self.metrics.inc(f"resilience.{name}", count)
            if result.resumed_trials:
                self.metrics.inc("resilience.resumed_trials", result.resumed_trials)
        if result.interrupted:
            # a drained job must fail honestly: publishing the partial
            # document under the full result key would serve it as complete
            # to every future identical submit.
            raise RuntimeError(
                "suite drained before completion; completed trials are "
                "checkpointed — resubmit to resume"
            )
        if result.failed_count:
            first = result.failures[0]
            raise RuntimeError(
                f"{result.failed_count} of {len(result.points)} suite points "
                f"lost after retry exhaustion (point #{first[0]}: {first[1]})"
            )
        job.emit(
            "suite-points",
            executed=result.executed_count,
            cached=result.cached_count,
        )
        payload = suite_result_payload(result, key=job.id)
        return payload, result.executed_count


def scenario_child(conn, request: ScenarioRequest, progress_every: int, parent: int) -> None:
    """Run one scenario job and send it over *conn*: the forked child's work.

    Every probe event goes out as ``("event", kind, data)``; the last message
    is ``("done", payload, executed)`` or ``("failed", error text)``, the text
    an in-thread run would have published.  Before each event the child
    checks that *parent* (the server's pid) is still its parent and exits if
    not: once the server is killed outright nobody reads, yet a write need
    not fail, because other processes forked from the server may hold the
    pipe's read end open.
    """

    def emit(kind: str, **data) -> None:
        if os.getppid() != parent:
            os._exit(1)
        conn.send(("event", kind, data))

    try:
        probe = JobProbe(SimpleNamespace(emit=emit), every_datasets=progress_every)
        outcome = Session(request.spec).run_online(seed=request.seed, probe=probe)
        probe.finish()
        payload = scenario_result_payload(request.spec, request.seed, outcome.trace)
        message = ("done", payload, len(outcome.trace.records))
    except Exception as exc:
        message = ("failed", _error_text(exc))
    conn.send(message)


def _scenario_process(reader, writer, request, progress_every, parent):  # pragma: no cover - child
    reader.close()
    code = 1
    try:
        scenario_child(writer, request, progress_every, parent)
        code = 0
    finally:
        # skip the interpreter's exit handlers: they belong to the server.
        os._exit(code)


def _relay(reader, pid: int, job: Job):
    """Relay the child's events into *job* until its last message.

    Returns that message, or ``None`` when the child exited without one.  The
    exit check leaves the child to be reaped by the caller.
    """
    while True:
        exited = os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is not None
        if reader.poll(0 if exited else RELAY_POLL_S):
            try:
                message = reader.recv()
            except EOFError:
                return None
            if message[0] != "event":
                return message
            job.emit(message[1], **message[2])
        elif exited:
            return None
