"""The declarative scenario specification tree.

A :class:`ScenarioSpec` describes *everything* needed to run one point of the
tri-criteria space (latency × period × ε) explored by the paper — workload,
scheduler, failure regime and runtime options — as a frozen, composable tree
of pure-data dataclasses:

* :class:`WorkloadSpec` — which workload generator (by name, resolved through
  :data:`~repro.scenario.registries.WORKLOAD_GENERATORS`), its size and seed;
* :class:`SchedulerSpec` — which scheduling heuristic (by name), the target
  ε and period (explicit, or derived from the throughput-slack rule);
* :class:`FaultSpec` — the stochastic failure regime (mttf/mttr, distribution,
  Weibull shape, trace seed);
* :class:`RuntimeSpec` — the online-runtime options (rescheduling and
  admission policies by name, rebuild behaviour).

Because a spec is pure data it serializes losslessly to JSON
(:meth:`ScenarioSpec.to_dict` / :meth:`ScenarioSpec.from_dict`, see
:mod:`repro.scenario.serialize`), expands into sweep grids
(:meth:`ScenarioSpec.grid`, see :mod:`repro.scenario.grid`), pickles cleanly
across campaign worker processes, and drives every front end — scheduling,
offline simulation, the online runtime and Monte-Carlo campaigns — through
the :class:`~repro.api.Session` facade.

Every field is validated at construction; a bad value raises
:class:`~repro.exceptions.SpecificationError` (a :class:`ValueError`) whose
message names the field, and every name lookup suggests close matches.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from typing import Mapping, Sequence

from repro.exceptions import SpecificationError
from repro.failures.scenarios import FAULT_DISTRIBUTIONS
from repro.runtime.admission import ADMISSION_POLICIES
from repro.runtime.policies import RESCHEDULE_POLICIES
from repro.scenario.registries import PLATFORM_BUILDERS, SCHEDULERS, WORKLOAD_GENERATORS

__all__ = [
    "WorkloadSpec",
    "SchedulerSpec",
    "FaultSpec",
    "RuntimeSpec",
    "ScenarioSpec",
]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecificationError(message)


def _is_int(value) -> bool:
    """An ``int`` that is not a ``bool`` (JSON ``true`` is not a count)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_int(obj, path: str, minimum: int, nullable: bool = False) -> None:
    """Require an int >= *minimum* at the dotted field *path* of *obj*
    (``None`` too if *nullable*)."""
    value = getattr(obj, path.partition(".")[2])
    if nullable and value is None:
        return
    _require(
        _is_int(value) and value >= minimum,
        f"{path} must be an int >= {minimum}{' or null' if nullable else ''}, "
        f"got {value!r}",
    )


def _check_real(obj, path: str, positive: bool = True, nullable: bool = False) -> None:
    """Require a finite real > 0 (``>= 0`` unless *positive*) at the dotted
    field *path* of *obj*, stored back as a float (``None`` passes if
    *nullable*).  A bool is not a number, and an infinity is not a duration
    or a ratio."""
    name = path.partition(".")[2]
    value = getattr(obj, name)
    if nullable and value is None:
        return
    _require(
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
        and (value > 0 if positive else value >= 0),
        f"{path} must be a finite number {'>' if positive else '>='} 0"
        f"{' or null' if nullable else ''}, got {value!r}",
    )
    _set(obj, name, float(value))


def _check_name(registry, name: str, field_name: str) -> None:
    if name not in registry:
        raise SpecificationError(f"{field_name}: {registry.describe_unknown(name)}")


def _set(obj, name: str, value) -> None:
    object.__setattr__(obj, name, value)


def _check_options(options, owner: str) -> dict:
    _require(
        isinstance(options, Mapping),
        f"{owner}.options must be a mapping of keyword arguments, "
        f"got {type(options).__name__}",
    )
    _require(
        all(isinstance(k, str) for k in options),
        f"{owner}.options keys must be strings",
    )
    return dict(options)


@dataclass(frozen=True)
class WorkloadSpec:
    """Which workload to build: a named generator plus its parameters.

    ``generator`` names an entry of
    :data:`~repro.scenario.registries.WORKLOAD_GENERATORS` (``"paper"`` is the
    random Section-5 workload; ``"chain"``, ``"video"``, … are the example
    graphs).  ``platform`` optionally names an entry of
    :data:`~repro.scenario.registries.PLATFORM_BUILDERS` (defaults to the
    paper platform); the ``"paper"`` generator always builds its own paper
    platform, so another ``platform`` name is rejected rather than silently
    ignored.  ``num_tasks`` sizes the generators that take a size (``paper``,
    ``chain``, ``fork-join``, ``layered``); fixed-shape example graphs
    (``video``, ``dsp``, …) are sized through ``options`` instead.  ``seed``
    pins the workload RNG; when ``None`` the run seed derives it (one
    independent workload per Monte-Carlo trial).  ``options`` are extra
    generator keyword arguments — JSON scalars only, so the spec stays
    serializable.
    """

    generator: str = "paper"
    granularity: float = 1.0
    num_tasks: int | None = 30
    num_processors: int = 10
    task_range: tuple[int, int] | None = None
    platform: str | None = None
    seed: int | None = None
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_name(WORKLOAD_GENERATORS, self.generator, "workload.generator")
        _check_real(self, "workload.granularity")
        _check_int(self, "workload.num_tasks", 2, nullable=True)
        _check_int(self, "workload.num_processors", 1)
        if self.task_range is not None:
            _require(
                isinstance(self.task_range, Sequence)
                and len(self.task_range) == 2
                and all(_is_int(v) for v in self.task_range),
                f"workload.task_range must be [low, high] ints or null, "
                f"got {self.task_range!r}",
            )
            low, high = self.task_range
            _require(
                1 <= low <= high,
                f"workload.task_range needs 1 <= low <= high, got {self.task_range!r}",
            )
            _set(self, "task_range", (low, high))
        if self.platform is not None:
            _check_name(PLATFORM_BUILDERS, self.platform, "workload.platform")
            _require(
                self.generator != "paper" or self.platform == "paper",
                f"workload.platform: the 'paper' generator always builds the "
                f"paper platform and cannot honour {self.platform!r}; omit "
                f"platform or pick a graph generator (chain, layered, ...)",
            )
        _check_int(self, "workload.seed", 0, nullable=True)
        _set(self, "options", _check_options(self.options, "workload"))


@dataclass(frozen=True)
class SchedulerSpec:
    """Which scheduling heuristic builds the ε-fault-tolerant schedule.

    ``name`` is an entry of :data:`~repro.scenario.registries.SCHEDULERS`.
    ``period`` is the explicit iteration period Δ; when ``None`` it is derived
    from the workload with the throughput-slack rule of the experiments
    (``period_slack``, see :func:`repro.experiments.config.workload_period`).
    With ``fallback=True`` (the historical Monte-Carlo behaviour) a scenario
    that cannot be scheduled degrades gracefully: ε is lowered step by step
    and LTF is tried after the requested heuristic before giving up.
    ``options`` are extra scheduler keyword arguments (``strict_resilience``,
    ``chunk_size``, …).
    """

    name: str = "rltf"
    epsilon: int = 2
    period: float | None = None
    period_slack: float = 2.0
    fallback: bool = True
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_name(SCHEDULERS, self.name, "scheduler.name")
        _check_int(self, "scheduler.epsilon", 0)
        entry = SCHEDULERS.lookup(self.name)
        if not entry.supports_epsilon:
            _require(
                self.epsilon == 0,
                f"scheduler.epsilon: the {self.name!r} scheduler does not replicate "
                f"tasks, epsilon must be 0 (got {self.epsilon})",
            )
        _check_real(self, "scheduler.period", nullable=True)
        _check_real(self, "scheduler.period_slack")
        _require(
            isinstance(self.fallback, bool),
            f"scheduler.fallback must be a bool, got {self.fallback!r}",
        )
        _set(self, "options", _check_options(self.options, "scheduler"))


@dataclass(frozen=True)
class FaultSpec:
    """The stochastic failure regime the online runtime executes under.

    Times are expressed in multiples of the schedule period Δ so a spec is
    meaningful across workloads: ``mttf_periods=60`` means a processor fails
    on average after 60 stream iterations.  ``mttr_periods=None`` means
    fail-stop (no repair, as in the paper).  ``repair_shape`` makes repair
    delays Weibull(``repair_shape``, mean ``mttr_periods``·Δ) instead of the
    default exponential — ``None`` keeps the historical exponential draw
    bit-for-bit (a Weibull with shape 1 has the same law but consumes the RNG
    stream differently).  ``seed`` pins the fault-trace RNG; when ``None``
    the run seed derives it.

    The remaining fields open the richer failure worlds of
    :mod:`repro.failures.processes`:

    * ``group_size`` — correlated crash groups: processors are chunked into
      groups of this size (declaration order) and each group fails as one
      unit.  ``None`` (default) means independent failures, or the platform's
      own ``failure_domains`` topology when it declares one.
    * ``load_coupling`` — load-dependent hazards: failure intensity is
      multiplied by ``1 + load_coupling × utilization`` of the (group's mean)
      utilization in the initial schedule.  ``0`` (default) disables it.
    * ``trace_file`` — trace-driven replay: path to a ``time,node,down|up``
      CSV (see :mod:`repro.failures.trace_io`) replayed instead of sampling;
      mutually exclusive with every other stochastic knob above.
    * ``spares`` / ``join_periods`` / ``preempt_periods`` — elastic
      platforms: the last ``spares`` processors start outside the platform
      and join after exponential(``join_periods``·Δ) delays;
      ``preempt_periods`` adds spot-preemption (crash then rejoin) renewals
      on the active processors.
    """

    mttf_periods: float = 500.0
    mttr_periods: float | None = None
    distribution: str = "exponential"
    weibull_shape: float = 1.5
    repair_shape: float | None = None
    seed: int | None = None
    group_size: int | None = None
    load_coupling: float = 0.0
    trace_file: str | None = None
    spares: int = 0
    join_periods: float | None = None
    preempt_periods: float | None = None

    def __post_init__(self) -> None:
        _check_real(self, "faults.mttf_periods")
        _check_real(self, "faults.mttr_periods", nullable=True)
        _require(
            self.distribution in FAULT_DISTRIBUTIONS,
            f"faults.distribution must be one of {list(FAULT_DISTRIBUTIONS)}, "
            f"got {self.distribution!r}",
        )
        _check_real(self, "faults.weibull_shape")
        _check_real(self, "faults.repair_shape", nullable=True)
        _check_int(self, "faults.seed", 0, nullable=True)
        _check_int(self, "faults.group_size", 1, nullable=True)
        _check_real(self, "faults.load_coupling", positive=False)
        _check_int(self, "faults.spares", 0)
        _check_real(self, "faults.join_periods", nullable=True)
        _check_real(self, "faults.preempt_periods", nullable=True)
        _require(
            not ((self.spares or self.preempt_periods is not None)
                 and self.join_periods is None),
            "faults.join_periods is required when faults.spares > 0 or "
            "faults.preempt_periods is set",
        )
        if self.trace_file is not None:
            _require(
                isinstance(self.trace_file, str) and bool(self.trace_file),
                f"faults.trace_file must be a non-empty string or null, "
                f"got {self.trace_file!r}",
            )
            stochastic = [
                name
                for name, value in (
                    ("repair_shape", self.repair_shape),
                    ("group_size", self.group_size),
                    ("load_coupling", self.load_coupling or None),
                    ("spares", self.spares or None),
                    ("join_periods", self.join_periods),
                    ("preempt_periods", self.preempt_periods),
                )
                if value is not None
            ]
            _require(
                not stochastic,
                f"faults.trace_file replays a recorded trace and cannot be "
                f"combined with faults.{stochastic[0] if stochastic else ''}",
            )

    @property
    def is_elastic(self) -> bool:
        """True when the regime adds capacity at runtime (spares/preemption)."""
        return bool(self.spares) or self.preempt_periods is not None


@dataclass(frozen=True)
class RuntimeSpec:
    """Options of the online runtime (stream length, policies, rebuilds).

    ``checkpoint`` accepts only ``True``: checkpoint/restart is the runtime's
    one execution mode.  The field stays so that existing spec files and
    their cache keys keep loading unchanged.

    ``policy`` and ``admission`` name entries of the runtime policy registries
    (:data:`~repro.runtime.policies.RESCHEDULE_POLICIES`,
    :data:`~repro.runtime.admission.ADMISSION_POLICIES`).
    """

    num_datasets: int = 200
    policy: str = "rltf"
    admission: str = "shed"
    queue_capacity: int | None = 64
    checkpoint: bool = True
    rebuild_on_repair: bool = False
    rebuild_overhead: float = 1.0
    fast_forward: bool = True

    def __post_init__(self) -> None:
        _check_int(self, "runtime.num_datasets", 1)
        _check_name(RESCHEDULE_POLICIES, self.policy, "runtime.policy")
        _check_name(ADMISSION_POLICIES, self.admission, "runtime.admission")
        _check_int(self, "runtime.queue_capacity", 1, nullable=True)
        _require(
            self.checkpoint is True,
            f"runtime.checkpoint must be true (checkpoint/restart is the only "
            f"execution mode), got {self.checkpoint!r}",
        )
        _require(
            isinstance(self.rebuild_on_repair, bool),
            f"runtime.rebuild_on_repair must be a bool, got {self.rebuild_on_repair!r}",
        )
        _check_real(self, "runtime.rebuild_overhead", positive=False)
        _require(
            isinstance(self.fast_forward, bool),
            f"runtime.fast_forward must be a bool, got {self.fast_forward!r}",
        )


#: the four sections of a scenario, in canonical serialization order.
SECTION_TYPES: dict[str, type] = {
    "workload": WorkloadSpec,
    "scheduler": SchedulerSpec,
    "faults": FaultSpec,
    "runtime": RuntimeSpec,
}


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-specified scenario: workload × scheduler × faults × runtime."""

    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    scheduler: SchedulerSpec = field(default_factory=SchedulerSpec)
    faults: FaultSpec = field(default_factory=FaultSpec)
    runtime: RuntimeSpec = field(default_factory=RuntimeSpec)
    name: str = "scenario"

    def __post_init__(self) -> None:
        for section, cls in SECTION_TYPES.items():
            value = getattr(self, section)
            if isinstance(value, Mapping):  # accept plain dict sections
                from repro.scenario.serialize import section_from_dict

                _set(self, section, section_from_dict(section, value))
            elif not isinstance(value, cls):
                raise SpecificationError(
                    f"{section} must be a {cls.__name__} or a mapping, "
                    f"got {type(value).__name__}"
                )
        _require(
            isinstance(self.name, str) and bool(self.name),
            f"name must be a non-empty string, got {self.name!r}",
        )
        _require(
            self.scheduler.epsilon < self.workload.num_processors,
            f"scheduler.epsilon={self.scheduler.epsilon} needs "
            f"epsilon < workload.num_processors={self.workload.num_processors}",
        )
        _require(
            self.faults.spares < self.workload.num_processors,
            f"faults.spares={self.faults.spares} must leave at least one "
            f"active processor (workload.num_processors="
            f"{self.workload.num_processors})",
        )
        _require(
            self.scheduler.epsilon < self.workload.num_processors - self.faults.spares,
            f"scheduler.epsilon={self.scheduler.epsilon} needs epsilon < "
            f"active processors (num_processors={self.workload.num_processors} "
            f"minus faults.spares={self.faults.spares})",
        )

    # ------------------------------------------------------------- composition
    def updated(self, changes: Mapping[str, object]) -> "ScenarioSpec":
        """A copy with dotted-path overrides applied.

        Dotted paths replace individual leaf fields; ``"name"`` addresses the
        top level.  Unknown paths raise
        :class:`~repro.exceptions.SpecificationError` with close-match
        suggestions, and the copy revalidates as a whole.

        >>> spec = ScenarioSpec().updated({
        ...     "faults.mttf_periods": 60,
        ...     "runtime.policy": "remap",
        ... })
        >>> spec.faults.mttf_periods
        60.0
        >>> spec.runtime.policy
        'remap'
        """
        from repro.scenario.grid import apply_changes

        return apply_changes(self, changes)

    def grid(self, axes: Mapping[str, Sequence] | None = None, **kw_axes) -> list["ScenarioSpec"]:
        """Expand axis dicts into the cartesian list of scenario specs.

        Axes are dotted paths mapped to value sequences; the product iterates
        the *last* axis fastest (first axis major), matching the grid order of
        :func:`repro.experiments.sweep.run_suite`.  Keyword axes use
        ``__`` for the dot: ``grid(faults__mttf_periods=[50, 100])``.

        >>> specs = ScenarioSpec().grid({
        ...     "faults.mttf_periods": [50.0, 100.0],
        ...     "faults.mttr_periods": [None, 25.0],
        ... })
        >>> len(specs)
        4
        """
        from repro.scenario.grid import expand_grid

        merged: dict[str, Sequence] = dict(axes or {})
        for key, values in kw_axes.items():
            merged[key.replace("__", ".")] = values
        return expand_grid(self, merged)

    def with_name(self, name: str) -> "ScenarioSpec":
        """A copy of the spec renamed to *name*."""
        return replace(self, name=name)

    # ---------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        """Plain nested dict (JSON types only), round-tripping via from_dict.

        The round trip is exact — it is what makes specs content-addressable
        for the result cache (:mod:`repro.cache`).

        >>> ScenarioSpec.from_dict(ScenarioSpec().to_dict()) == ScenarioSpec()
        True
        """
        from repro.scenario.serialize import spec_to_dict

        return spec_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScenarioSpec":
        """Build a spec from a nested dict, validating keys and values."""
        from repro.scenario.serialize import spec_from_dict

        return spec_from_dict(data)

    def to_json(self, indent: int | None = 2) -> str:
        """JSON document of the spec (the on-disk scenario-file format)."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Parse a JSON document produced by :meth:`to_json` (or by hand)."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecificationError(f"scenario is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path) -> "ScenarioSpec":
        """Load a scenario from a JSON file."""
        from pathlib import Path

        return cls.from_json(Path(path).read_text())

    def save(self, path) -> None:
        """Write the spec to *path* as JSON."""
        from pathlib import Path

        Path(path).write_text(self.to_json() + "\n")

    # ---------------------------------------------------------------- display
    def describe(self) -> str:
        """One-line human summary (used by the CLI and reports)."""
        mttr = (
            "∞"
            if self.faults.mttr_periods is None
            else f"{self.faults.mttr_periods:g}Δ"
        )
        return (
            f"{self.name}: {self.workload.generator} workload "
            f"(g={self.workload.granularity:g}, m={self.workload.num_processors}), "
            f"{self.scheduler.name} ε={self.scheduler.epsilon}, "
            f"{self.faults.distribution} faults mttf={self.faults.mttf_periods:g}Δ "
            f"mttr={mttr}, policy={self.runtime.policy}, "
            f"admission={self.runtime.admission}"
        )


def _spec_paths() -> list[str]:
    """Every valid dotted override path (used for error suggestions)."""
    paths = ["name"]
    for section, cls in SECTION_TYPES.items():
        paths.extend(f"{section}.{f.name}" for f in fields(cls))
    return paths
