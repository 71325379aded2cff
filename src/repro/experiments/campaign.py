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

A point is a campaign of the one campaign executor
(:mod:`repro.experiments.parallel`) whose trials are its graph instances:
every instance derives its own child seed up front from :func:`point_seed`,
the instances of all points share one supervised pool — sharded *within* a
point as well as across points — and the result is bit-for-bit identical for
any ``jobs`` value.  With a result cache, every point and every instance is
cached under a key of the ``figure`` kind, so panels of one ε share their
campaign and an interrupted campaign resumes instance by instance.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
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
from repro.utils.rng import ensure_rng

__all__ = [
    "PointResult",
    "CampaignResult",
    "FigurePoint",
    "point_seed",
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


#: the two heuristics of the paper, keyed by their display name.
ALGORITHMS: dict[str, Callable[..., Schedule]] = {
    "LTF": ltf_schedule,
    "R-LTF": rltf_schedule,
}


@dataclass(frozen=True)
class FigurePoint:
    """One (granularity, ε) point of a figure: the spec of its campaign."""

    granularity: float
    epsilon: int
    config: ExperimentConfig

    def to_dict(self) -> dict:
        """The cache identity of the point: ε, the granularity and every
        configuration field but the granularity axis and the graph count
        (the campaign's trial count, which instance keys leave out)."""
        fields = asdict(self.config)
        del fields["granularities"], fields["num_graphs"]
        return {"epsilon": self.epsilon, "granularity": self.granularity, **fields}


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
    item: tuple[FigurePoint, int],
) -> tuple[dict[str, list[float]], dict[str, int]]:
    """Evaluate one random graph of one campaign point.

    *item* is ``(point, instance_seed)``.  Returns the per-metric value lists
    contributed by this instance plus its failure counters — the trial of a
    figure campaign, fanned across processes by :func:`run_campaign`.
    """
    point, seed = item
    granularity, epsilon, config = point.granularity, point.epsilon, point.config
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


def run_campaign(
    epsilon: int,
    config: ExperimentConfig,
    jobs: int | None = 1,
    cache=None,
) -> CampaignResult:
    """Sweep every granularity of *config* for the given ε.

    Each granularity is one campaign of the executor of
    :mod:`repro.experiments.parallel`: its seed is :func:`point_seed` (offset
    ``31·ε``), its trials are the ``num_graphs`` graph instances and its trial
    function is :func:`run_graph_instance`.  The instances of every point
    share one supervised pool, so ``jobs`` workers stay busy even when there
    are fewer points than workers, a transient worker death retries only the
    lost instances, and the campaign is bit-for-bit identical for any
    ``jobs`` value.  Instances still missing after the retry budget raise
    :class:`~repro.resilience.supervisor.ExecutionError`.

    *cache* (a cache object from :mod:`repro.cache`, a directory path, or
    ``None`` for no caching) serves a point whole when it ran before on this
    code version, and checkpoints every instance as it lands: a re-run after
    an interruption, or with a larger ``num_graphs``, executes only the
    missing instances.
    """
    from repro.cache import open_cache
    from repro.experiments.parallel import _execute_campaigns
    from repro.resilience import ExecutionError, resolve_chaos

    points = [FigurePoint(g, epsilon, config) for g in config.granularities]
    run = _execute_campaigns(
        [(point, point_seed(config, point.granularity, offset=31 * epsilon))
         for point in points],
        config.num_graphs, jobs, open_cache(cache),
        trial=run_graph_instance, kind="figure",
        max_retries=2, trial_timeout=None, resume=True,
        chaos=resolve_chaos(None), stop=None,
    )
    if run.outcome.failures:
        raise ExecutionError(run.outcome.failures, what=f"campaign (epsilon {epsilon})")
    return CampaignResult(
        epsilon=epsilon,
        points=[
            _reduce_point(point.granularity, epsilon, config, list(result.values))
            for point, result in zip(points, run.results)
        ],
    )
