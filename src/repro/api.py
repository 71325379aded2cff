"""The Session facade: one typed entry point for every front end.

A :class:`Session` wraps one :class:`~repro.scenario.spec.ScenarioSpec` and
drives every execution front end of the reproduction through it —

* :meth:`Session.schedule` — build the ε-fault-tolerant schedule (the static
  machinery of the paper);
* :meth:`Session.simulate` — stream data sets through the offline
  discrete-event simulator (sanity check of the ``L = (2S−1)·Δ`` model);
* :meth:`Session.run_online` — one seeded run of the online runtime under
  stochastic failures, bit-identical to a direct
  :class:`~repro.runtime.engine.OnlineRuntime` call on the same inputs;
* :meth:`Session.monte_carlo` — a parallel Monte-Carlo campaign of such runs;
* :meth:`Session.sweep` — a whole grid of such campaigns over arbitrary spec
  axes (or a :class:`~repro.scenario.suite.SuiteSpec` loaded from one file),
  sharded across processes, served from the spec-hash result cache, returning
  figure-ready panels.

The first four return uniform :class:`Result` objects carrying the spec, the
seed and a ``summary()`` of headline metrics, so reports and CLIs render any
of them the same way; sweeps return a
:class:`~repro.experiments.sweep.SweepResult` with pivoting helpers.

>>> from repro.api import Session
>>> session = Session.from_dict({
...     "workload": {"num_tasks": 15, "num_processors": 6},
...     "scheduler": {"epsilon": 1},
... })
>>> result = session.schedule()
>>> result.schedule.epsilon
1

Scenario files make the same session reproducible from disk, and suite files
sweep whole grids of them through the result cache::

    session = Session.from_file("examples/scenario.json")
    print(session.run_online(seed=0).summary())

    suite = SuiteSpec.from_file("examples/suite.json")
    result = session.sweep(suite, cache="results-cache/")
    print(result.panel(x_axis="faults.mttf_periods", metric="availability"))
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Mapping

from repro.failures.simulator import SimulationResult, StreamingSimulator
from repro.graph.generator import PaperWorkload
from repro.runtime.trace import RuntimeStats, RuntimeTrace
from repro.scenario.run import (
    active_workload,
    build_schedule,
    build_workload,
    execute_online,
    resolve_period,
    resolve_seeds,
)
from repro.scenario.spec import ScenarioSpec
from repro.schedule.metrics import latency_upper_bound
from repro.schedule.stages import num_stages
from repro.schedule.schedule import Schedule

__all__ = [
    "Session",
    "Result",
    "ScheduleResult",
    "SimulateResult",
    "OnlineResult",
    "MonteCarloResult",
]


# ------------------------------------------------------------------- results
@dataclass(frozen=True)
class Result:
    """Common shape of every Session outcome: spec + seed + summary.

    Every front end returns a subclass (:class:`ScheduleResult`,
    :class:`SimulateResult`, :class:`OnlineResult`, :class:`MonteCarloResult`)
    that keeps the full domain objects (schedule, traces, …) *and* renders
    uniformly: ``summary()`` gives the headline metrics, ``as_rows()`` the
    same as table rows, and ``kind`` tags the front end that produced it.

    >>> from repro.api import Session
    >>> result = Session.from_dict({
    ...     "workload": {"num_tasks": 12, "num_processors": 6},
    ...     "scheduler": {"epsilon": 1},
    ... }).schedule()
    >>> result.kind
    'schedule'
    >>> result.seed
    0
    >>> [name for name, _ in result.as_rows()][:3]
    ['algorithm', 'period', 'epsilon']
    """

    spec: ScenarioSpec
    seed: int

    kind: ClassVar[str] = "result"

    def summary(self) -> dict[str, object]:
        """Headline metrics of the run, name → value."""
        raise NotImplementedError  # pragma: no cover - abstract

    def as_rows(self) -> list[list[object]]:
        """The summary as ``[name, value]`` rows for table rendering."""
        return [[name, value] for name, value in self.summary().items()]


@dataclass(frozen=True)
class ScheduleResult(Result):
    """Outcome of :meth:`Session.schedule`."""

    workload: PaperWorkload
    schedule: Schedule

    kind: ClassVar[str] = "schedule"

    def summary(self) -> dict[str, object]:
        return {
            "algorithm": self.schedule.algorithm,
            "period": self.schedule.period,
            "epsilon": self.schedule.epsilon,
            "stages": num_stages(self.schedule),
            "latency upper bound": latency_upper_bound(self.schedule),
            "used processors": len(self.schedule.used_processors()),
        }


@dataclass(frozen=True)
class SimulateResult(Result):
    """Outcome of :meth:`Session.simulate`."""

    workload: PaperWorkload
    schedule: Schedule
    simulation: SimulationResult

    kind: ClassVar[str] = "simulate"

    def summary(self) -> dict[str, object]:
        return {
            "datasets": self.simulation.num_datasets,
            "steady-state latency": self.simulation.steady_state_latency,
            "max latency": self.simulation.max_latency,
            "achieved period": self.simulation.achieved_period,
            "schedule period": self.simulation.period,
        }


@dataclass(frozen=True)
class OnlineResult(Result):
    """Outcome of :meth:`Session.run_online`."""

    trace: RuntimeTrace

    kind: ClassVar[str] = "online"

    def summary(self) -> dict[str, object]:
        trace = self.trace
        return {
            "datasets": trace.num_datasets,
            "completed": trace.completed_count,
            "lost": trace.lost_count,
            "loss rate": trace.loss_rate,
            "mean latency": trace.mean_latency,
            "p95 latency": trace.p95_latency,
            "p99 latency": trace.p99_latency,
            "rebuilds": trace.num_rebuilds,
            "downtime": trace.downtime,
            "availability": trace.availability,
            "aborted": trace.aborted,
        }


@dataclass(frozen=True)
class MonteCarloResult(Result):
    """Outcome of :meth:`Session.monte_carlo`."""

    campaign: "RuntimeCampaignResult"  # noqa: F821 - imported lazily

    kind: ClassVar[str] = "monte-carlo"

    @property
    def traces(self) -> tuple[RuntimeTrace, ...]:
        if self.campaign.traces is None:
            raise ValueError(
                "this campaign ran with reduce='stats': the traces were "
                "summarized inside the workers and never shipped back — "
                "re-run with reduce='traces' to keep them"
            )
        return self.campaign.traces

    @property
    def stats(self) -> RuntimeStats:
        return self.campaign.stats

    def summary(self) -> dict[str, object]:
        return {name: value for name, value in self.stats.as_rows()}


# ------------------------------------------------------------------- session
class Session:
    """Run one declarative scenario through any front end (see module doc)."""

    def __init__(self, spec: ScenarioSpec):
        if not isinstance(spec, ScenarioSpec):
            raise TypeError(
                f"Session expects a ScenarioSpec, got {type(spec).__name__} "
                f"(use Session.from_dict / Session.from_file for raw data)"
            )
        self._spec = spec
        # (workload, schedule, period) per seed — schedule() then simulate()
        # on the same seed builds the pipeline once.
        self._built: dict[int, tuple[PaperWorkload, Schedule]] = {}

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_spec(cls, spec: ScenarioSpec) -> "Session":
        """Session over an already-built spec (alias of the constructor)."""
        return cls(spec)

    @classmethod
    def from_dict(cls, data: Mapping) -> "Session":
        """Session from a nested scenario mapping (validated)."""
        return cls(ScenarioSpec.from_dict(data))

    @classmethod
    def from_json(cls, text: str) -> "Session":
        """Session from a scenario JSON document."""
        return cls(ScenarioSpec.from_json(text))

    @classmethod
    def from_file(cls, path: str | Path) -> "Session":
        """Session from a scenario JSON file (``scenario.json``)."""
        return cls(ScenarioSpec.from_file(path))

    # ----------------------------------------------------------------- access
    @property
    def spec(self) -> ScenarioSpec:
        """The immutable scenario this session runs."""
        return self._spec

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Session({self._spec.describe()})"

    # ------------------------------------------------------------- front ends
    def _pipeline(self, seed: int) -> tuple[PaperWorkload, Schedule]:
        if seed not in self._built:
            workload_seed, _ = resolve_seeds(self._spec, seed)
            workload = build_workload(self._spec.workload, workload_seed)
            period = resolve_period(workload, self._spec.scheduler)
            # Elastic regimes schedule on the initially-active subset (the
            # spares join mid-stream); the cached workload keeps the full
            # platform for the fault trace and the runtime's candidate pool.
            schedule = build_schedule(
                active_workload(workload, self._spec.faults),
                self._spec.scheduler,
                period,
            )
            self._built[seed] = (workload, schedule)
        return self._built[seed]

    def workload(self, seed: int = 0) -> PaperWorkload:
        """Materialize the scenario's workload for one run seed."""
        return self._pipeline(seed)[0]

    def schedule(self, seed: int = 0) -> ScheduleResult:
        """Build the ε-fault-tolerant schedule of the scenario.

        >>> result = Session.from_dict({
        ...     "workload": {"num_tasks": 12, "num_processors": 6},
        ...     "scheduler": {"epsilon": 1},
        ... }).schedule()
        >>> result.schedule.epsilon
        1
        >>> result.summary()["stages"] >= 1
        True
        """
        workload, schedule = self._pipeline(seed)
        return ScheduleResult(
            spec=self._spec, seed=seed, workload=workload, schedule=schedule
        )

    def simulate(
        self, num_datasets: int | None = None, seed: int = 0
    ) -> SimulateResult:
        """Stream data sets through the offline (crash-free) simulator.

        *num_datasets* defaults to the spec's ``runtime.num_datasets``.  The
        steady-state latency sanity-checks the paper's ``L = (2S−1)·Δ`` model.

        >>> result = Session.from_dict({
        ...     "workload": {"num_tasks": 12, "num_processors": 6},
        ...     "scheduler": {"epsilon": 1},
        ... }).simulate(num_datasets=5)
        >>> result.simulation.num_datasets
        5
        >>> result.summary()["steady-state latency"] > 0
        True
        """
        workload, schedule = self._pipeline(seed)
        count = self._spec.runtime.num_datasets if num_datasets is None else num_datasets
        simulation = StreamingSimulator(schedule).run(count)
        return SimulateResult(
            spec=self._spec,
            seed=seed,
            workload=workload,
            schedule=schedule,
            simulation=simulation,
        )

    def run_online(self, seed: int = 0, probe=None) -> OnlineResult:
        """One seeded online run under the scenario's stochastic failures.

        The trace is a pure function of ``(spec, seed)`` and bit-identical to
        the equivalent direct :class:`~repro.runtime.engine.OnlineRuntime`
        call (the historical Monte-Carlo trial path).  The workload and
        schedule come from the per-seed pipeline cache, so
        ``schedule()`` / ``simulate()`` / ``run_online()`` on one seed build
        them once.

        *probe* attaches a :class:`repro.obs.probe.Probe` (e.g.
        :class:`~repro.obs.probe.MetricsProbe`) to the run; instrumentation
        observes without perturbing — the trace is identical with and
        without a probe.

        >>> session = Session.from_dict({
        ...     "workload": {"num_tasks": 12, "num_processors": 6},
        ...     "scheduler": {"epsilon": 1},
        ...     "runtime": {"num_datasets": 20},
        ... })
        >>> trace = session.run_online(seed=3).trace
        >>> trace == session.run_online(seed=3).trace  # pure in (spec, seed)
        True
        >>> trace.num_datasets
        20
        """
        workload, schedule = self._pipeline(seed)
        _, fault_seed = resolve_seeds(self._spec, seed)
        return OnlineResult(
            spec=self._spec,
            seed=seed,
            trace=execute_online(self._spec, workload, schedule, fault_seed, probe=probe),
        )

    def monte_carlo(
        self,
        trials: int = 20,
        seed: int = 0,
        jobs: int | None = 1,
        cache=None,
        reduce: str = "traces",
        *,
        max_retries: int = 2,
        trial_timeout: float | None = None,
        resume: bool = False,
        chaos=None,
        stop=None,
    ) -> MonteCarloResult:
        """A Monte-Carlo campaign of online runs, ``jobs`` trials at a time.

        Child seeds derive up front from *seed*, so the result is bit-for-bit
        identical for any ``jobs`` value.  *cache* (a :mod:`repro.cache`
        object or a directory path) serves the whole campaign from its
        content address when the identical ``(spec, seed, trials, reduce)``
        ran before on this code version.  *reduce* selects the worker
        payload: ``"traces"`` (default) keeps every trial's full trace,
        ``"stats"`` summarizes each trace inside the worker so only a few
        floats per trial cross the process boundary — identical
        :attr:`~MonteCarloResult.stats`, but :attr:`~MonteCarloResult.traces`
        is then unavailable.

        The resilience keywords pass straight through to
        :func:`~repro.experiments.parallel.run_runtime_campaign`:
        *max_retries* / *trial_timeout* bound the supervised pool's recovery
        from dead or stuck workers, *resume* checkpoints each trial to the
        cache as it completes (an interrupted campaign re-executes only the
        missing trials), and *chaos* injects seeded toolchain faults for
        testing (see :mod:`repro.resilience`).

        >>> session = Session.from_dict({
        ...     "workload": {"num_tasks": 12, "num_processors": 6},
        ...     "scheduler": {"epsilon": 1},
        ...     "runtime": {"num_datasets": 20},
        ... })
        >>> mc = session.monte_carlo(trials=2, seed=1)
        >>> mc.stats.trials
        2
        >>> lean = session.monte_carlo(trials=2, seed=1, reduce="stats")
        >>> lean.stats == mc.stats
        True
        """
        # Imported lazily: the experiments package must not load on import of
        # the facade (it pulls the whole campaign/figure stack).
        from repro.experiments.parallel import run_runtime_campaign

        campaign = run_runtime_campaign(
            self._spec, trials=trials, seed=seed, jobs=jobs, cache=cache,
            reduce=reduce, max_retries=max_retries, trial_timeout=trial_timeout,
            resume=resume, chaos=chaos, stop=stop,
        )
        return MonteCarloResult(spec=self._spec, seed=seed, campaign=campaign)

    def sweep(
        self,
        axes=None,
        trials: int | None = None,
        seed: int | None = None,
        jobs: int | None = 1,
        cache=None,
        name: str | None = None,
        reduce: str = "traces",
        max_retries: int = 2,
        trial_timeout: float | None = None,
        resume: bool = False,
        chaos=None,
        stop=None,
        **kw_axes,
    ) -> "SweepResult":  # noqa: F821 - imported lazily
        """A grid of Monte-Carlo campaigns over arbitrary spec axes.

        *axes* is either a mapping of dotted spec paths to value lists — the
        grid is their cartesian product applied to this session's spec (first
        axis major; keyword axes use ``__`` for the dot, as in
        :meth:`ScenarioSpec.grid <repro.scenario.spec.ScenarioSpec.grid>`) —
        or an entire :class:`~repro.scenario.suite.SuiteSpec`, which runs
        with its *own* base scenario, trials and seed (this is how suite
        files execute: ``Session(spec).sweep(SuiteSpec.from_file(path))``).

        *trials* and *seed* default to 10 and 0 for axis mappings, and to the
        suite's declared values for suites.  *cache* enables spec-hash result
        caching (a :mod:`repro.cache` object or a directory path): points
        whose ``(spec, seed, trials, reduce, code version)`` ran before are
        served bit-identically from disk, only changed points re-execute,
        *jobs* at a time.  *reduce* selects the worker payload: ``"stats"``
        summarizes every trace inside the worker, so wide sweeps that only
        read per-point statistics (panels, rows) transfer and cache a few
        floats per trial instead of full trace pickles.  The resilience
        keywords (*max_retries*, *trial_timeout*, *resume*, *chaos*, *stop*)
        pass straight through to
        :func:`~repro.experiments.sweep.run_suite`: supervised recovery from
        dead/stuck workers, trial-level checkpoint/resume, and seeded chaos
        injection.  Returns a
        :class:`~repro.experiments.sweep.SweepResult`
        whose :meth:`~repro.experiments.sweep.SweepResult.panel` pivots any
        ``(x_axis, metric, y_axis)`` choice into a figure-ready series.

        >>> session = Session.from_dict({
        ...     "workload": {"num_tasks": 12, "num_processors": 6},
        ...     "scheduler": {"epsilon": 1},
        ...     "runtime": {"num_datasets": 20},
        ... })
        >>> result = session.sweep({"faults.mttf_periods": [40.0, 80.0]},
        ...                        trials=1)
        >>> [point.value_of("faults.mttf_periods") for point in result.points]
        [40.0, 80.0]
        >>> result.panel(metric="availability").x
        (40.0, 80.0)
        """
        # Imported lazily, like monte_carlo: the facade must not pull the
        # experiments stack at import time.
        from repro.experiments.sweep import run_suite
        from repro.scenario.suite import SuiteSpec

        if isinstance(axes, SuiteSpec):
            if kw_axes:
                raise TypeError(
                    "pass axes either as a SuiteSpec or as keyword axes, not both"
                )
            if name is not None:
                # silently keeping the suite's own name would leave report
                # headers and panel names labeled with a name the caller
                # believes they overrode
                raise TypeError(
                    "name= only applies when building a suite from axes; "
                    "rename a SuiteSpec with dataclasses.replace(suite, name=...)"
                )
            suite = axes
        else:
            merged = dict(axes or {})
            for key, values in kw_axes.items():
                merged[key.replace("__", ".")] = values
            suite = SuiteSpec(
                base=self._spec,
                axes=merged,
                name="sweep" if name is None else name,
                trials=10 if trials is None else trials,
                seed=0 if seed is None else seed,
            )
            trials = seed = None  # the suite now carries the resolved values
        return run_suite(
            suite, seed=seed, trials=trials, jobs=jobs, cache=cache, reduce=reduce,
            max_retries=max_retries, trial_timeout=trial_timeout, resume=resume,
            chaos=chaos, stop=stop,
        )
