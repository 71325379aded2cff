"""Execution record of one online streaming run.

The online runtime (:mod:`repro.runtime.engine`) produces a
:class:`RuntimeTrace`: one :class:`DatasetRecord` per data set of the stream
(completed with a latency, or lost with a reason), one :class:`RuntimeEvent`
per runtime decision (tolerated crash, rebuild, repair, abort), and aggregate
statistics (downtime, rebuild count, achieved period).

Everything here is a frozen dataclass built from plain floats and strings, so
traces compare with ``==`` (two runs with the same seed must produce *equal*
traces), pickle across process boundaries (the Monte-Carlo engine fans trials
out with :mod:`concurrent.futures`), and aggregate cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.obs.metrics import LatencyHistogram

__all__ = [
    "DatasetRecord",
    "RuntimeEvent",
    "RuntimeTrace",
    "RuntimeStats",
    "TraceSummary",
    "summarize_trace",
    "summarize_traces",
    "combine_summaries",
]

#: terminal states of one data set of the stream.  ``lost-overflow`` is the
#: bounded-queue admission policy dropping the backlog that no longer fits.
DATASET_STATUSES = ("completed", "lost-downtime", "shed", "lost-abort", "lost-overflow")


@dataclass(frozen=True)
class DatasetRecord:
    """Fate of one data set of the stream."""

    index: int
    release: float
    completion: float | None
    status: str  # one of DATASET_STATUSES

    def __post_init__(self) -> None:
        if self.status not in DATASET_STATUSES:
            raise ValueError(f"unknown dataset status {self.status!r}")
        if (self.completion is None) == (self.status == "completed"):
            raise ValueError(
                f"dataset {self.index}: status {self.status!r} inconsistent with "
                f"completion {self.completion!r}"
            )

    @property
    def completed(self) -> bool:
        return self.status == "completed"

    @property
    def latency(self) -> float | None:
        """Completion minus release time (``None`` for lost data sets)."""
        if self.completion is None:
            return None
        return self.completion - self.release


@dataclass(frozen=True)
class RuntimeEvent:
    """One logged runtime decision."""

    time: float
    kind: str  # crash-tolerated | crash-rebuild | crash-unused | crash-during-rebuild
    #          # | rebuild-complete | repair | repair-rebuild | repair-rebuild-skipped | abort
    processor: str | None = None
    detail: str = ""


@dataclass(frozen=True)
class RuntimeTrace:
    """Complete record of one online run (see module docstring)."""

    records: tuple[DatasetRecord, ...]
    events: tuple[RuntimeEvent, ...]
    period: float
    horizon: float
    num_rebuilds: int
    downtime: float
    aborted: bool
    final_alive: tuple[str, ...]
    policy: str
    #: admission policy name of the run (see :mod:`repro.runtime.admission`)
    #: and its execution mode — always checkpoint/restart, kept because
    #: frozen trace fingerprints hash it.
    admission: str = "shed"
    checkpoint: bool = True

    # ------------------------------------------------------------------ counts
    @property
    def num_datasets(self) -> int:
        return len(self.records)

    @property
    def completed_count(self) -> int:
        return sum(1 for r in self.records if r.completed)

    @property
    def lost_count(self) -> int:
        return self.num_datasets - self.completed_count

    def lost_by_reason(self) -> dict[str, int]:
        """Number of lost data sets per status (``shed``, ``lost-downtime``...)."""
        out: dict[str, int] = {}
        for r in self.records:
            if not r.completed:
                out[r.status] = out.get(r.status, 0) + 1
        return out

    @property
    def loss_rate(self) -> float:
        """Fraction of the stream that never completed."""
        if not self.records:
            return 0.0
        return self.lost_count / self.num_datasets

    # ---------------------------------------------------------------- latencies
    @property
    def latencies(self) -> tuple[float, ...]:
        """Latency of every completed data set, in stream order."""
        return tuple(r.latency for r in self.records if r.completed)

    @property
    def mean_latency(self) -> float:
        lats = self.latencies
        return float(np.mean(lats)) if lats else float("nan")

    @property
    def max_latency(self) -> float:
        lats = self.latencies
        return float(max(lats)) if lats else float("nan")

    def latency_histogram(self) -> LatencyHistogram:
        """Completed-data-set latencies on the global fixed bucket ladder.

        Histograms of different traces share the bucket edges, so they merge
        exactly — this is what :class:`TraceSummary` transports and what the
        campaign percentiles (:attr:`RuntimeStats.p95_latency` …) are read
        from.
        """
        return LatencyHistogram.from_values(self.latencies)

    def _latency_quantile(self, q: float) -> float:
        # overflow bucket falls back to the exact maximum; the bucket ladder
        # spans nine decades, so this only triggers on absurd latencies
        return self.latency_histogram().quantile(q, overflow=self.max_latency)

    @property
    def p50_latency(self) -> float:
        """Median completed-data-set latency (bucket upper edge, ≤ ~8.5 % high)."""
        return self._latency_quantile(0.5)

    @property
    def p95_latency(self) -> float:
        return self._latency_quantile(0.95)

    @property
    def p99_latency(self) -> float:
        return self._latency_quantile(0.99)

    @property
    def achieved_period(self) -> float:
        """Average inter-completion gap over the tail half of the completions.

        The number ``Session.simulate`` and ``run --mode simulate`` report
        for their crash-free engine run, and the one a campaign averages.
        """
        completions = [r.completion for r in self.records if r.completed]
        if len(completions) < 2:
            return self.period
        gaps = np.diff(completions)
        tail = gaps[len(gaps) // 2 :]
        return float(np.mean(tail)) if len(tail) else self.period

    # -------------------------------------------------------------- availability
    @property
    def availability(self) -> float:
        """Fraction of the horizon the runtime was accepting data sets."""
        if self.horizon <= 0:
            return 1.0
        return max(0.0, 1.0 - self.downtime / self.horizon)

    def events_of_kind(self, kind: str) -> tuple[RuntimeEvent, ...]:
        return tuple(e for e in self.events if e.kind == kind)

    def __repr__(self) -> str:
        return (
            f"RuntimeTrace(datasets={self.num_datasets}, completed={self.completed_count}, "
            f"rebuilds={self.num_rebuilds}, downtime={self.downtime:g}, "
            f"aborted={self.aborted})"
        )


@dataclass(frozen=True)
class RuntimeStats:
    """Aggregate statistics over a collection of runtime traces."""

    trials: int
    aborted_trials: int
    mean_rebuilds: float
    mean_downtime: float
    mean_availability: float
    mean_loss_rate: float
    mean_latency: float
    mean_achieved_period: float
    total_crashes: int
    lost_by_reason: dict[str, int] = field(default_factory=dict)
    #: latency-distribution tail over *all* completed data sets of all trials,
    #: read off the merged fixed-bucket histogram (each percentile is its
    #: bucket's upper edge — an overestimate of at most ~8.5 %; the maximum is
    #: exact).  NaN when no trial completed anything.
    p50_latency: float = float("nan")
    p95_latency: float = float("nan")
    p99_latency: float = float("nan")
    max_latency: float = float("nan")
    #: the merged histogram itself, in sparse ``((bucket, count), ...)`` form.
    latency_histogram: tuple[tuple[int, int], ...] = ()

    def as_rows(self) -> list[list[object]]:
        """Rows ``[statistic, value]`` for ASCII reporting."""
        rows: list[list[object]] = [
            ["trials", self.trials],
            ["aborted trials", self.aborted_trials],
            ["crash events (total)", self.total_crashes],
            ["rebuilds (mean/trial)", self.mean_rebuilds],
            ["downtime (mean/trial)", self.mean_downtime],
            ["availability (mean)", self.mean_availability],
            ["loss rate (mean)", self.mean_loss_rate],
            ["latency (mean, completed)", self.mean_latency],
            ["latency (p50)", self.p50_latency],
            ["latency (p95)", self.p95_latency],
            ["latency (p99)", self.p99_latency],
            ["latency (max)", self.max_latency],
            ["achieved period (mean)", self.mean_achieved_period],
        ]
        for reason in sorted(self.lost_by_reason):
            rows.append([f"lost: {reason} (total)", self.lost_by_reason[reason]])
        return rows


@dataclass(frozen=True)
class TraceSummary:
    """The per-trace scalars that :func:`summarize_traces` aggregates.

    This is the *stats-only transport* unit of the campaign engine: a worker
    process summarizes its trace to one of these (a dozen floats plus a small
    dict) instead of shipping the full :class:`RuntimeTrace` pickle — per-
    dataset records and all — back through the process pool.  The reduction
    is lossless for statistics: :func:`combine_summaries` over the summaries
    of a trace collection produces a :class:`RuntimeStats` **equal** to
    :func:`summarize_traces` over the traces themselves (it is how
    ``summarize_traces`` is implemented).
    """

    num_datasets: int
    completed_count: int
    num_rebuilds: int
    downtime: float
    availability: float
    loss_rate: float
    mean_latency: float
    achieved_period: float
    aborted: bool
    crashes: int
    lost_by_reason: dict[str, int] = field(default_factory=dict)
    #: exact per-trace latency maximum and the trace's fixed-bucket latency
    #: histogram in sparse form — the merge-exact distribution transport
    #: behind the campaign percentiles (see :mod:`repro.obs.metrics`).
    max_latency: float = float("nan")
    latency_histogram: tuple[tuple[int, int], ...] = ()


def summarize_trace(trace: RuntimeTrace) -> TraceSummary:
    """Reduce one trace to the scalars campaign statistics are built from."""
    return TraceSummary(
        num_datasets=trace.num_datasets,
        completed_count=trace.completed_count,
        num_rebuilds=trace.num_rebuilds,
        downtime=trace.downtime,
        availability=trace.availability,
        loss_rate=trace.loss_rate,
        mean_latency=trace.mean_latency,
        achieved_period=trace.achieved_period,
        aborted=trace.aborted,
        crashes=sum(1 for e in trace.events if e.kind.startswith("crash")),
        lost_by_reason=trace.lost_by_reason(),
        max_latency=trace.max_latency,
        latency_histogram=trace.latency_histogram().as_sparse(),
    )


def combine_summaries(
    summaries: Sequence[TraceSummary] | Iterable[TraceSummary],
) -> RuntimeStats:
    """Aggregate per-trace summaries into a :class:`RuntimeStats`.

    Exactly the aggregation of :func:`summarize_traces` — every mean is taken
    over the identical per-trace value list, so ``combine_summaries(map(
    summarize_trace, traces))`` equals ``summarize_traces(traces)`` bit for
    bit, regardless of which process produced the summaries.  (One ``==``
    caveat: when no trial completed anything, ``mean_latency`` is NaN on both
    sides and dataclass equality reports the two identical stats as unequal —
    compare NaN-aware if that regime matters to you.)
    """
    summaries = list(summaries)
    if not summaries:
        raise ValueError("cannot summarize an empty collection of traces")
    lost: dict[str, int] = {}
    for summary in summaries:
        for reason, count in summary.lost_by_reason.items():
            lost[reason] = lost.get(reason, 0) + count
    latencies = [s.mean_latency for s in summaries if s.completed_count]
    # element-wise histogram merge: integer bucket counts add exactly, so the
    # percentiles below equal the percentiles of one histogram built from
    # every completed data set of every trial — regardless of how the trials
    # were partitioned across processes (property-tested in tests/property)
    merged = LatencyHistogram()
    for summary in summaries:
        merged.update_sparse(summary.latency_histogram)
    maxes = [s.max_latency for s in summaries if s.completed_count]
    max_latency = max(maxes) if maxes else float("nan")
    return RuntimeStats(
        trials=len(summaries),
        aborted_trials=sum(1 for s in summaries if s.aborted),
        mean_rebuilds=float(np.mean([s.num_rebuilds for s in summaries])),
        mean_downtime=float(np.mean([s.downtime for s in summaries])),
        mean_availability=float(np.mean([s.availability for s in summaries])),
        mean_loss_rate=float(np.mean([s.loss_rate for s in summaries])),
        mean_latency=float(np.mean(latencies)) if latencies else float("nan"),
        mean_achieved_period=float(np.mean([s.achieved_period for s in summaries])),
        total_crashes=sum(s.crashes for s in summaries),
        lost_by_reason=lost,
        p50_latency=merged.quantile(0.5, overflow=max_latency),
        p95_latency=merged.quantile(0.95, overflow=max_latency),
        p99_latency=merged.quantile(0.99, overflow=max_latency),
        max_latency=max_latency,
        latency_histogram=merged.as_sparse(),
    )


def summarize_traces(traces: Sequence[RuntimeTrace] | Iterable[RuntimeTrace]) -> RuntimeStats:
    """Aggregate *traces* into a :class:`RuntimeStats`."""
    return combine_summaries(summarize_trace(trace) for trace in traces)
