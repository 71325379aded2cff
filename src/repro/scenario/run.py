"""The canonical spec → execution pipeline.

One module owns the path from a pure-data :class:`~repro.scenario.spec.
ScenarioSpec` to live objects — workload, schedule, fault trace, online trace
— so that every front end (the :class:`~repro.api.Session` facade, the
Monte-Carlo trial worker, the sweep grid points, the CLI) runs scenarios
through *exactly* the same code.  :func:`run_scenario_online` is the pure,
picklable unit of Monte-Carlo work: the returned trace depends only on
``(spec, seed)``, never on the process that ran it.

Seed derivation (unchanged from the historical trial path, so traces are
bit-for-bit identical to the pre-redesign direct calls): the run seed derives
two child seeds in order — workload, fault trace — which
``workload.seed`` / ``faults.seed`` individually override when pinned in the
spec.
"""

from __future__ import annotations

from repro.exceptions import SchedulingError, SpecificationError
from repro.failures.scenarios import FaultTrace, sample_fault_trace
from repro.graph.generator import PaperWorkload
from repro.runtime.admission import QueueAdmissionPolicy
from repro.runtime.engine import OnlineRuntime
from repro.runtime.trace import RuntimeTrace
from repro.scenario.registries import SCHEDULERS, WORKLOAD_GENERATORS
from repro.scenario.spec import FaultSpec, ScenarioSpec, SchedulerSpec, WorkloadSpec
from repro.utils.registry import close_matches_hint
from repro.schedule.schedule import Schedule
from repro.utils.rng import derive_seed, ensure_rng

__all__ = [
    "resolve_seeds",
    "build_workload",
    "active_workload",
    "resolve_period",
    "build_schedule",
    "build_fault_trace",
    "execute_online",
    "run_scenario_online",
    "validate_spec_options",
]


def validate_spec_options(spec: ScenarioSpec) -> None:
    """Pre-flight the parts of *spec* only execution would otherwise check.

    Today that is the ``scheduler.options`` ↔ builder-signature match plus the
    ``faults.trace_file`` existence check; the service calls this at submit
    time so a bad key or a missing trace is an immediate HTTP 422, not a
    failed job minutes later.
    """
    entry = SCHEDULERS.lookup(spec.scheduler.name)
    _check_scheduler_options(spec.scheduler.name, entry.build, dict(spec.scheduler.options))
    if spec.faults.trace_file is not None:
        from pathlib import Path

        if not Path(spec.faults.trace_file).is_file():
            raise SpecificationError(
                f"faults.trace_file: no such file {spec.faults.trace_file!r}"
            )


def resolve_seeds(spec: ScenarioSpec, seed: int) -> tuple[int, int]:
    """The ``(workload_seed, fault_seed)`` pair of one run of *spec*.

    Both are derived from the run *seed* in a fixed order; a seed pinned in
    the spec (``workload.seed`` / ``faults.seed``) overrides its derived
    value without disturbing the other one.
    """
    rng = ensure_rng(seed)
    workload_seed = derive_seed(rng)
    fault_seed = derive_seed(rng)
    if spec.workload.seed is not None:
        workload_seed = spec.workload.seed
    if spec.faults.seed is not None:
        fault_seed = spec.faults.seed
    return workload_seed, fault_seed


def build_workload(spec: WorkloadSpec, seed) -> PaperWorkload:
    """Materialize the workload of *spec* (generator resolved by name)."""
    generator = WORKLOAD_GENERATORS.lookup(spec.generator)
    try:
        return generator(spec, seed)
    except TypeError as exc:
        if not spec.options:
            raise  # a real defect in the generator, not a bad options dict
        raise SpecificationError(
            f"workload.options not accepted by generator {spec.generator!r}: {exc}"
        ) from exc


def _accepted_options(builder, options: dict) -> dict:
    """The subset of *options* that *builder*'s signature accepts."""
    import inspect

    try:
        accepted = inspect.signature(builder).parameters
    except (TypeError, ValueError):  # pragma: no cover - builtins etc.
        return options
    return {k: v for k, v in options.items() if k in accepted}


#: builder parameters the pipeline itself supplies — never scheduler.options.
_RESERVED_BUILDER_PARAMS = ("graph", "platform", "period", "epsilon")


def _check_scheduler_options(name: str, builder, options: dict) -> None:
    """Reject ``scheduler.options`` keys the named heuristic does not accept.

    Without this, an unknown key would surface as a raw ``TypeError`` from
    the builder call deep in the scheduling ladder; validated here, it becomes
    a :class:`SpecificationError` with the same close-match suggestion style
    every other spec field produces (CLI exit 2 / service HTTP 422).
    """
    if not options:
        return
    import inspect

    try:
        params = inspect.signature(builder).parameters
    except (TypeError, ValueError):  # pragma: no cover - builtins etc.
        return
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
        return  # builder takes **kwargs: every key is its problem now
    allowed = tuple(
        pname
        for pname, p in params.items()
        if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
        and pname not in _RESERVED_BUILDER_PARAMS
    )
    for key in options:
        if key not in allowed:
            raise SpecificationError(
                f"scheduler.options key {key!r} not accepted by scheduler "
                f"{name!r}, expected one of {sorted(allowed)}"
                f"{close_matches_hint(key, allowed)}"
            )


def resolve_period(workload: PaperWorkload, scheduler: SchedulerSpec) -> float:
    """The iteration period Δ of the scenario: explicit, or slack-derived."""
    if scheduler.period is not None:
        return scheduler.period
    # Imported lazily: the experiments package pulls in the campaign/figure
    # stack, which must not load just because a spec was constructed.
    from repro.experiments.config import ExperimentConfig, workload_period

    config = ExperimentConfig(period_slack=scheduler.period_slack)
    return workload_period(workload, scheduler.epsilon, config)


def build_schedule(
    workload: PaperWorkload, scheduler: SchedulerSpec, period: float | None = None
) -> Schedule:
    """Build the schedule of the scenario, degrading per the fallback rule.

    With ``fallback=True`` the historical trial ladder applies: ε is tried at
    the requested value, one below, then 0, and LTF is tried after the named
    heuristic at each step — a scenario the heuristic cannot schedule
    degrades instead of dying (the online rebuild machinery still exercises
    the failures).  With ``fallback=False`` a single attempt is made.
    """
    if period is None:
        period = resolve_period(workload, scheduler)
    entry = SCHEDULERS.lookup(scheduler.name)
    options = dict(scheduler.options)
    _check_scheduler_options(scheduler.name, entry.build, options)
    if not entry.supports_epsilon:
        return entry.build(workload.graph, workload.platform, period=period, **options)
    if scheduler.fallback:
        epsilons = dict.fromkeys((scheduler.epsilon, max(0, scheduler.epsilon - 1), 0))
        builders = [entry.build]
        if scheduler.name != "ltf":
            builders.append(SCHEDULERS.lookup("ltf").build)
    else:
        epsilons = {scheduler.epsilon: None}
        builders = [entry.build]
    last_error: SchedulingError | None = None
    for epsilon in epsilons:
        for builder in builders:
            try:
                return builder(
                    workload.graph,
                    workload.platform,
                    period=period,
                    epsilon=epsilon,
                    # heuristic-specific options (e.g. rltf's enable_rule1)
                    # must not kill the *fallback* heuristic with a TypeError
                    **(options if builder is entry.build
                       else _accepted_options(builder, options)),
                )
            except SchedulingError as exc:
                last_error = exc
                continue
    raise SchedulingError(
        f"no schedule found for scenario (scheduler {scheduler.name!r}, "
        f"epsilon {scheduler.epsilon}, period {period:g}): {last_error}"
    )


def active_workload(workload: PaperWorkload, faults: FaultSpec) -> PaperWorkload:
    """The workload restricted to the initially-active platform.

    On an elastic regime the last ``faults.spares`` processors (declaration
    order) start outside the platform, so the *initial* schedule is built on
    the remaining subset — the period is still resolved on the full platform,
    which the joins can later restore.  With ``spares=0`` the workload is
    returned unchanged (same object), keeping the non-elastic path
    bit-identical.
    """
    if not faults.spares:
        return workload
    from dataclasses import replace

    names = workload.platform.processor_names
    active = names[: len(names) - faults.spares]
    return replace(workload, platform=workload.platform.subset(active))


def _crash_groups(platform, faults: FaultSpec):
    """The correlated crash groups of the scenario, or ``None`` (independent).

    ``faults.group_size`` chunks processors in declaration order; without it
    the platform's own ``failure_domains`` topology applies when declared.
    """
    if faults.group_size is not None:
        if faults.group_size <= 1:
            return None
        names = platform.processor_names
        return [
            names[i : i + faults.group_size]
            for i in range(0, len(names), faults.group_size)
        ]
    domains = platform.failure_domains
    return list(domains.values()) if domains else None


def build_fault_trace(
    workload: PaperWorkload,
    faults: FaultSpec,
    schedule_period: float,
    num_datasets: int,
    seed,
    schedule: Schedule | None = None,
) -> FaultTrace:
    """The timed fault trace of the scenario over the stream horizon.

    Sampled from the spec's stochastic regime, or — with ``faults.trace_file``
    — replayed from a recorded availability log (times in the CSV are
    absolute simulation units, validated against the workload platform and
    clipped to the horizon).  *schedule* supplies the utilization view for
    load-dependent hazards: intensities follow the *initial* schedule's
    per-processor utilization.
    """
    platform = workload.platform
    horizon = num_datasets * schedule_period
    if faults.trace_file is not None:
        from repro.failures.trace_io import load_fault_trace

        return load_fault_trace(faults.trace_file, platform=platform, horizon=horizon)
    utilization = None
    if faults.load_coupling and schedule is not None:
        from repro.schedule.metrics import processor_utilization

        utilization = processor_utilization(schedule)
    return sample_fault_trace(
        platform,
        horizon=horizon,
        mttf=faults.mttf_periods * schedule_period,
        distribution=faults.distribution,
        shape=faults.weibull_shape,
        mttr=None
        if faults.mttr_periods is None
        else faults.mttr_periods * schedule_period,
        seed=seed,
        repair_shape=faults.repair_shape,
        groups=_crash_groups(platform, faults),
        load_coupling=faults.load_coupling,
        utilization=utilization,
        spares=faults.spares,
        join_mean=None
        if faults.join_periods is None
        else faults.join_periods * schedule_period,
        preempt_mean=None
        if faults.preempt_periods is None
        else faults.preempt_periods * schedule_period,
    )


def execute_online(
    spec: ScenarioSpec,
    workload: PaperWorkload,
    schedule: Schedule,
    fault_seed,
    probe=None,
) -> RuntimeTrace:
    """Run the online leg of *spec* on an already-built pipeline.

    Split out of :func:`run_scenario_online` so callers holding a cached
    ``(workload, schedule)`` pair (the Session facade builds one per seed)
    don't pay the workload generation and scheduling ladder again.  *probe*
    is an optional :class:`repro.obs.probe.Probe` observing the run.

    *workload* carries the **full** platform even on elastic regimes (the
    schedule is what lives on the active subset): the fault trace samples
    joins for the spares, and the runtime receives the full platform as its
    rebuild candidate pool.
    """
    fault_trace = build_fault_trace(
        workload,
        spec.faults,
        schedule.period,
        spec.runtime.num_datasets,
        fault_seed,
        schedule=schedule,
    )
    admission = spec.runtime.admission
    if admission == "queue":
        admission = QueueAdmissionPolicy(capacity=spec.runtime.queue_capacity)
    runtime = OnlineRuntime(
        schedule,
        fault_trace,
        policy=spec.runtime.policy,
        rebuild_overhead=spec.runtime.rebuild_overhead,
        rebuild_on_repair=spec.runtime.rebuild_on_repair,
        admission=admission,
        checkpoint=spec.runtime.checkpoint,
        probe=probe,
        platform=workload.platform if spec.faults.is_elastic else None,
    )
    return runtime.run(spec.runtime.num_datasets)


def run_scenario_online(spec: ScenarioSpec, seed: int = 0, probe=None) -> RuntimeTrace:
    """Run one seeded online trial of *spec*: workload → schedule → faults → run.

    Deterministic: the trace only depends on ``(spec, seed)``.  This is the
    unit of work fanned across processes by the Monte-Carlo campaign engine,
    and the single execution path under ``Session.run_online``,
    :func:`repro.runtime.montecarlo.run_trial` and every campaign and suite.
    """
    workload_seed, fault_seed = resolve_seeds(spec, seed)
    workload = build_workload(spec.workload, workload_seed)
    period = resolve_period(workload, spec.scheduler)
    try:
        schedule = build_schedule(active_workload(workload, spec.faults), spec.scheduler, period)
    except SchedulingError as exc:
        raise SchedulingError(
            f"no schedule found for scenario {spec.name!r} seed {seed}: {exc}"
        ) from None
    return execute_online(spec, workload, schedule, fault_seed, probe=probe)
