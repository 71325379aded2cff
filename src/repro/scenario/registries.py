"""Named registries turning scenario specs into live objects.

A :class:`~repro.scenario.spec.ScenarioSpec` is pure data — every component it
references (workload generator, platform builder, scheduler) is a *name*
resolved here through the :class:`~repro.utils.registry.PolicyRegistry`
machinery, exactly like the rescheduling and admission policies of the online
runtime.  Registering a new entry in one of these registries makes it
reachable from JSON scenario files, the :class:`~repro.api.Session` facade,
the CLI and the sweep/campaign layers without further wiring.

Three registries live here:

* :data:`WORKLOAD_GENERATORS` — ``name -> fn(spec, seed) -> PaperWorkload``.
  ``"paper"`` is the random experimental workload of Section 5 (bit-identical
  to the historical Monte-Carlo trial path); the other entries build the named
  example graphs (chain, fork-join, video pipeline, …) and pair them with a
  platform built from :data:`PLATFORM_BUILDERS`.
* :data:`PLATFORM_BUILDERS` — ``name -> fn(num_processors, rng) -> Platform``.
* :data:`SCHEDULERS` — ``name -> SchedulerEntry`` wrapping the scheduling
  heuristics (LTF, R-LTF, fault-free reference, related-work baselines) with
  the metadata the runner needs (does the heuristic accept ``epsilon``?).
  A baseline is imported on the first use of its entry, so a run that never
  names one does not load :mod:`repro.baselines`.

Unknown names raise with the registered names and close-match suggestions.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.fault_free import fault_free_schedule
from repro.core.ltf import ltf_schedule
from repro.core.rltf import rltf_schedule
from repro.graph.analysis import granularity
from repro.graph.dag import TaskGraph
from repro.graph.examples import (
    dsp_filter_bank,
    map_reduce_graph,
    sensor_fusion_graph,
    video_encoding_pipeline,
)
from repro.graph.generator import (
    PaperWorkload,
    chain_graph,
    fork_join_graph,
    random_layered_dag,
    random_paper_workload,
    random_series_parallel,
)
from repro.platform.builders import (
    heterogeneous_platform,
    homogeneous_platform,
    paper_platform,
)
from repro.platform.platform import Platform
from repro.schedule.schedule import Schedule
from repro.utils.registry import PolicyRegistry
from repro.utils.rng import ensure_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.scenario.spec import WorkloadSpec

__all__ = [
    "WORKLOAD_GENERATORS",
    "PLATFORM_BUILDERS",
    "SCHEDULERS",
    "SchedulerEntry",
]


# ------------------------------------------------------------------ platforms
PLATFORM_BUILDERS = PolicyRegistry("platform builder")

PLATFORM_BUILDERS.register(
    lambda m, rng: paper_platform(seed=rng, m=m), name="paper"
)
PLATFORM_BUILDERS.register(
    lambda m, rng: homogeneous_platform(m), name="homogeneous"
)
PLATFORM_BUILDERS.register(
    lambda m, rng: heterogeneous_platform(m, seed=rng), name="heterogeneous"
)


def _build_platform(spec: "WorkloadSpec", rng: np.random.Generator) -> Platform:
    builder = PLATFORM_BUILDERS.lookup(spec.platform or "paper")
    return builder(spec.num_processors, rng)


# ---------------------------------------------------------------- workloads
WORKLOAD_GENERATORS = PolicyRegistry("workload generator")


def _paper_workload(spec: "WorkloadSpec", seed) -> PaperWorkload:
    """The Section-5 random workload — the exact historical trial call."""
    kwargs = dict(spec.options)
    if spec.task_range is not None:
        kwargs["task_range"] = spec.task_range
    return random_paper_workload(
        spec.granularity,
        seed=seed,
        num_tasks=spec.num_tasks,
        num_processors=spec.num_processors,
        **kwargs,
    )


WORKLOAD_GENERATORS.register(_paper_workload, name="paper")


def _wrap_graph(graph: TaskGraph, spec: "WorkloadSpec", rng, seed) -> PaperWorkload:
    platform = _build_platform(spec, rng)
    achieved = granularity(graph, platform)
    target = float(achieved) if math.isfinite(achieved) and achieved > 0 else 1.0
    return PaperWorkload(
        graph=graph,
        platform=platform,
        target_granularity=target,
        seed=None if isinstance(seed, np.random.Generator) else seed,
        metadata={"generator": spec.generator, "num_processors": spec.num_processors},
    )


def _register_graph(
    name: str,
    build: Callable[..., TaskGraph],
    size_param: str | None = None,
    takes_seed: bool = False,
) -> None:
    def generate(spec: "WorkloadSpec", seed) -> PaperWorkload:
        rng = ensure_rng(seed)
        kwargs = dict(spec.options)
        if size_param is not None and size_param not in kwargs and spec.num_tasks:
            kwargs[size_param] = spec.num_tasks
        graph = build(seed=rng, **kwargs) if takes_seed else build(**kwargs)
        return _wrap_graph(graph, spec, rng, seed)

    generate.__name__ = f"workload_{name.replace('-', '_')}"
    WORKLOAD_GENERATORS.register(generate, name=name)


_register_graph("chain", chain_graph, size_param="length")
_register_graph("fork-join", fork_join_graph, size_param="branches")
_register_graph("video", video_encoding_pipeline)
_register_graph("dsp", dsp_filter_bank)
_register_graph("map-reduce", map_reduce_graph)
_register_graph("sensor-fusion", sensor_fusion_graph)
_register_graph("series-parallel", random_series_parallel, takes_seed=True)
_register_graph("layered", random_layered_dag, size_param="num_tasks", takes_seed=True)


# ---------------------------------------------------------------- schedulers
@dataclass(frozen=True)
class SchedulerEntry:
    """One named scheduling heuristic plus the metadata the runner needs."""

    name: str
    #: the heuristic, or its ``"module:function"`` path, which :attr:`build`
    #: imports on first use.
    target: Callable[..., Schedule] | str
    #: whether ``build`` accepts the ``epsilon`` replication degree; heuristics
    #: without it (the fault-free reference, the related-work baselines) only
    #: accept scenarios with ``scheduler.epsilon == 0``.
    supports_epsilon: bool = True

    @cached_property
    def build(self) -> Callable[..., Schedule]:
        """The heuristic itself."""
        if not isinstance(self.target, str):
            return self.target
        module, _, function = self.target.partition(":")
        return getattr(importlib.import_module(module), function)


SCHEDULERS = PolicyRegistry("scheduler")
for _entry in (
    SchedulerEntry("rltf", rltf_schedule),
    SchedulerEntry("ltf", ltf_schedule),
    SchedulerEntry("fault-free", fault_free_schedule, supports_epsilon=False),
    SchedulerEntry("heft", "repro.baselines.listsched:heft_schedule", supports_epsilon=False),
    SchedulerEntry("etf", "repro.baselines.listsched:etf_schedule", supports_epsilon=False),
    SchedulerEntry(
        "preclustering",
        "repro.baselines.clustering:preclustering_schedule",
        supports_epsilon=False,
    ),
    SchedulerEntry("expert", "repro.baselines.expert:expert_schedule", supports_epsilon=False),
    SchedulerEntry("tda", "repro.baselines.tda:tda_schedule", supports_epsilon=False),
    SchedulerEntry("wmsh", "repro.baselines.wmsh:wmsh_schedule", supports_epsilon=False),
):
    SCHEDULERS.register(_entry, name=_entry.name)
del _entry
