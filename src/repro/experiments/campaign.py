"""Campaign runner: one (granularity, ε) point over many random graphs.

For every random graph the runner builds the LTF schedule, the R-LTF schedule
and the fault-free reference, then records for each heuristic:

* the normalized latency **upper bound** ``(2S−1)·Δ / w̄``;
* the normalized latency with **0 crashes** (first-arrival semantics);
* the normalized latency with **c crashes** (mean over sampled crash patterns);
* the corresponding **fault-tolerance overheads** against the fault-free
  latency.

Instances where a heuristic fails to meet the throughput constraint are
recorded as failures and excluded from the averages (their rate is reported).

Sharding: the unit of parallel work is one **graph instance**, not one
granularity point.  Every instance derives its own child seed up front from
:func:`point_seed` (see :func:`instance_seeds`), so
:func:`run_campaign` can flatten all ``(granularity, instance)`` pairs into a
single work list and fan them across processes — trials are sharded *within*
a point as well as across points, and the result is bit-for-bit identical for
any ``jobs`` value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from repro.core.fault_free import fault_free_schedule
from repro.core.ltf import ltf_schedule
from repro.core.rltf import rltf_schedule
from repro.exceptions import SchedulingError
from repro.experiments.config import ExperimentConfig, workload_period
from repro.failures.evaluation import expected_crash_latency
from repro.graph.generator import random_paper_workload
from repro.schedule.metrics import latency_upper_bound
from repro.schedule.schedule import Schedule
from repro.utils.rng import derive_seed, ensure_rng

__all__ = [
    "PointResult",
    "CampaignResult",
    "point_seed",
    "instance_seeds",
    "run_graph_instance",
    "run_campaign",
    "ALGORITHMS",
]


def point_seed(config: ExperimentConfig, granularity: float, offset: int = 0) -> int:
    """Deterministic seed of one (granularity, study) sweep point.

    Every study that fans granularity points across processes (the campaign,
    the ablations, the baselines) derives its per-point RNG from this single
    formula — the point's result then depends only on ``(config, granularity,
    offset)``, never on execution order, which is what makes ``jobs > 1``
    bit-for-bit identical to a serial run.
    """
    return config.seed + offset + int(round(granularity * 1000))


def instance_seeds(
    config: ExperimentConfig, granularity: float, epsilon: int
) -> list[int]:
    """Per-graph child seeds of one (granularity, ε) campaign point.

    Drawn up front from the point seed, so instance ``i`` is a pure function
    of ``(config, granularity, epsilon, i)`` — the prerequisite for sharding
    instances across processes without changing the numbers.
    """
    rng = ensure_rng(point_seed(config, granularity, offset=31 * epsilon))
    return [derive_seed(rng) for _ in range(config.num_graphs)]


#: the two heuristics of the paper, keyed by their display name.
ALGORITHMS: dict[str, Callable[..., Schedule]] = {
    "LTF": ltf_schedule,
    "R-LTF": rltf_schedule,
}


@dataclass
class PointResult:
    """Aggregated metrics of one (granularity, ε) point."""

    granularity: float
    epsilon: int
    crashes: tuple[int, ...]
    #: metric name -> mean value over the successful instances.
    metrics: dict[str, float] = field(default_factory=dict)
    #: algorithm -> number of instances it failed to schedule.
    failures: dict[str, int] = field(default_factory=dict)
    instances: int = 0

    def metric(self, name: str) -> float:
        """Mean value of a metric (NaN when no instance succeeded)."""
        return self.metrics.get(name, float("nan"))


@dataclass
class CampaignResult:
    """Results of a sweep over granularities for a fixed ε."""

    epsilon: int
    points: list[PointResult] = field(default_factory=list)

    @property
    def granularities(self) -> list[float]:
        return [p.granularity for p in self.points]

    def series(self, metric: str) -> list[float]:
        """The values of *metric* across granularities."""
        return [p.metric(metric) for p in self.points]


def run_graph_instance(
    item: tuple[float, int],
    epsilon: int,
    config: ExperimentConfig,
) -> tuple[dict[str, list[float]], dict[str, int]]:
    """Evaluate one random graph of one campaign point.

    *item* is ``(granularity, instance_seed)``.  Returns the per-metric value
    lists contributed by this instance plus its failure counters — the unit of
    work fanned across processes by :func:`run_campaign`.
    """
    granularity, seed = item
    crashes = config.crash_counts(epsilon)
    rng = ensure_rng(seed)
    accum: dict[str, list[float]] = {}
    failures = {name: 0 for name in ALGORITHMS}
    failures["fault-free"] = 0

    workload = random_paper_workload(
        granularity,
        seed=rng,
        num_processors=config.num_processors,
        task_range=config.task_range,
    )
    unit = workload.mean_task_time
    period = workload_period(workload, epsilon, config)
    ff_period = workload_period(workload, 0, config)
    try:
        ff = fault_free_schedule(workload.graph, workload.platform, period=ff_period)
        ff_latency = latency_upper_bound(ff)
    except SchedulingError:
        failures["fault-free"] += 1
        return accum, failures
    accum.setdefault("fault-free latency", []).append(ff_latency / unit)

    for name, scheduler in ALGORITHMS.items():
        try:
            schedule = scheduler(
                workload.graph,
                workload.platform,
                period=period,
                epsilon=epsilon,
                strict_resilience=config.strict_resilience,
            )
        except SchedulingError:
            failures[name] += 1
            continue
        upper = latency_upper_bound(schedule) / unit
        accum.setdefault(f"{name} upper bound", []).append(upper)
        accum.setdefault(f"{name} overhead upper bound (%)", []).append(
            100.0 * (latency_upper_bound(schedule) - ff_latency) / ff_latency
        )
        for c in crashes:
            latency_c = expected_crash_latency(
                schedule,
                c,
                samples=config.crash_samples,
                seed=rng,
                unit=unit,
                on_invalid="upper_bound",
            )
            accum.setdefault(f"{name} with {c} crash", []).append(latency_c)
            accum.setdefault(f"{name} overhead with {c} crash (%)", []).append(
                100.0 * (latency_c * unit - ff_latency) / ff_latency
            )
    return accum, failures


def _reduce_point(
    granularity: float,
    epsilon: int,
    config: ExperimentConfig,
    instance_results: list[tuple[dict[str, list[float]], dict[str, int]]],
) -> PointResult:
    """Aggregate per-instance contributions into one :class:`PointResult`.

    Values are concatenated in instance order before averaging, so the
    reduction is independent of how the instances were scheduled across
    workers.
    """
    accum: dict[str, list[float]] = {}
    failures: dict[str, int] = {}
    for metrics, fails in instance_results:
        for name, values in metrics.items():
            accum.setdefault(name, []).extend(values)
        for name, count in fails.items():
            failures[name] = failures.get(name, 0) + count
    metrics = {name: float(np.mean(values)) for name, values in accum.items() if values}
    return PointResult(
        granularity=granularity,
        epsilon=epsilon,
        crashes=config.crash_counts(epsilon),
        metrics=metrics,
        failures=failures,
        instances=config.num_graphs,
    )


def _supervised_units(fn, units, jobs: int | None, what: str, tokens=None) -> list:
    """``[fn(unit) for unit in units]`` over the supervised pool, in input order.

    The one pool primitive of the figure studies.  They have no partial-result
    shape (a point averages over *all* its instances), so units still missing
    after the retry budget raise :class:`~repro.resilience.supervisor.
    ExecutionError` naming *what* — but a transient worker death no longer
    costs the whole study.  *tokens* (default: the unit index) name the units
    in failures and key the chaos decisions of ``$REPRO_CHAOS``.  ``jobs`` of
    ``None``, 0 or 1 runs serially in-process, with the same results.
    """
    from repro.resilience import ExecutionError, resolve_chaos, supervised_map

    outcome = supervised_map(
        fn, units, jobs=jobs or 1, tokens=tokens, chaos=resolve_chaos(None)
    )
    if outcome.failures:
        raise ExecutionError(outcome.failures, what=what)
    return outcome.values


def run_campaign(
    epsilon: int,
    config: ExperimentConfig,
    jobs: int | None = 1,
) -> CampaignResult:
    """Sweep every granularity of *config* for the given ε.

    The whole campaign is flattened into one list of ``(granularity, graph
    instance)`` work units before fan-out, so ``jobs`` workers stay busy even
    when there are fewer granularity points than workers (per-graph sharding
    *within* a point).  Every unit carries its own pre-derived seed, so the
    campaign is bit-for-bit identical for any ``jobs`` value.  Execution runs
    under the supervised pool of :mod:`repro.resilience`, so a transient
    worker death retries only the lost instances instead of aborting the
    campaign; each unit's seed is its supervision token, so failures stay
    attributable.
    """
    units: list[tuple[float, int]] = []
    for granularity in config.granularities:
        units.extend((granularity, s) for s in instance_seeds(config, granularity, epsilon))
    results = _supervised_units(
        partial(run_graph_instance, epsilon=epsilon, config=config),
        units,
        jobs,
        what=f"campaign (epsilon {epsilon})",
        tokens=[unit_seed for _granularity, unit_seed in units],
    )
    n = config.num_graphs
    points = [
        _reduce_point(granularity, epsilon, config, results[k * n : (k + 1) * n])
        for k, granularity in enumerate(config.granularities)
    ]
    return CampaignResult(epsilon=epsilon, points=points)
