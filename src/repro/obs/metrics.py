"""Counters, gauges and merge-exact fixed-bucket latency histograms.

The paper's scheduling model is evaluated on *distributions*, not means: a
fault-tolerant mapping that keeps mean latency flat while the p99 triples
during rebuilds is a worse service, and ROADMAP's observability item asks for
exactly that tail visibility.  The obstacle is the campaign engine's
``reduce="stats"`` transport (PR 5): worker processes ship one small
:class:`~repro.runtime.trace.TraceSummary` per trial instead of the full
trace, so any percentile carried there must be computable from *mergeable*
per-trial state — raw quantiles do not merge, histograms with **shared fixed
bucket edges** do, exactly (merging is element-wise integer addition, and a
quantile read off the merged counts equals the quantile read off a histogram
of the concatenated observations, bucket for bucket).

Bucket layout
-------------

One global geometric ladder, fixed at import time:

* bucket ``0`` — observations at or below :data:`LATENCY_LOW`;
* buckets ``1 .. NUM_FINITE_BUCKETS`` — geometric steps from
  :data:`LATENCY_LOW` to :data:`LATENCY_HIGH`; with 256 steps over nine
  decades each bucket spans a factor of ``10**(9/256)`` ≈ 1.084, so any
  reported percentile overestimates the true value by at most ~8.5 %
  (quantiles are reported as the **upper edge** of their bucket);
* one overflow bucket for observations above :data:`LATENCY_HIGH` —
  :meth:`LatencyHistogram.quantile` lets the caller substitute an exact
  maximum when a quantile lands there.

Latencies are in the schedule's abstract time units (the same units as the
period); the nine-decade span covers everything the simulator produces.

This module must not import :mod:`repro.runtime` (the trace module imports it
back — keeping the dependency one-way avoids a cycle).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Mapping, Sequence

__all__ = [
    "LATENCY_LOW",
    "LATENCY_HIGH",
    "NUM_FINITE_BUCKETS",
    "NUM_BUCKETS",
    "LATENCY_BUCKET_EDGES",
    "LatencyHistogram",
    "MetricsRegistry",
]

#: upper edge of the underflow bucket (values ``<= LATENCY_LOW`` land there).
LATENCY_LOW = 1e-3
#: upper edge of the last finite bucket (values above overflow).
LATENCY_HIGH = 1e6
#: geometric steps between :data:`LATENCY_LOW` and :data:`LATENCY_HIGH`.
NUM_FINITE_BUCKETS = 256

#: upper edge of every non-overflow bucket, ascending.  ``EDGES[i]`` is the
#: value reported for a quantile landing in bucket ``i``.
LATENCY_BUCKET_EDGES: tuple[float, ...] = tuple(
    LATENCY_LOW * (LATENCY_HIGH / LATENCY_LOW) ** (i / NUM_FINITE_BUCKETS)
    for i in range(NUM_FINITE_BUCKETS + 1)
)

#: total bucket count, including the overflow bucket at the end.
NUM_BUCKETS = len(LATENCY_BUCKET_EDGES) + 1


class LatencyHistogram:
    """Fixed-bucket histogram over the global latency ladder.

    Two histograms always share the same edges, so :meth:`merge` is exact:
    quantiles of a merged histogram equal quantiles of a histogram built from
    the concatenated observations (property-tested in ``tests/property``).
    """

    __slots__ = ("counts",)

    def __init__(self, counts: Sequence[int] | None = None):
        if counts is None:
            self.counts = [0] * NUM_BUCKETS
        else:
            counts = [int(c) for c in counts]
            if len(counts) != NUM_BUCKETS:
                raise ValueError(
                    f"expected {NUM_BUCKETS} bucket counts, got {len(counts)}"
                )
            if any(c < 0 for c in counts):
                raise ValueError("bucket counts must be non-negative")
            self.counts = counts

    # ----------------------------------------------------------- construction
    @classmethod
    def from_values(cls, values: Iterable[float]) -> "LatencyHistogram":
        hist = cls()
        for value in values:
            hist.observe(value)
        return hist

    @classmethod
    def from_sparse(cls, sparse: Iterable[tuple[int, int]]) -> "LatencyHistogram":
        """Rebuild from the ``((bucket, count), ...)`` transport form."""
        hist = cls()
        counts = hist.counts
        for bucket, count in sparse:
            if not 0 <= bucket < NUM_BUCKETS:
                raise ValueError(f"bucket index {bucket} out of range")
            if count < 0:
                raise ValueError("bucket counts must be non-negative")
            counts[bucket] += int(count)
        return hist

    # ------------------------------------------------------------- recording
    def observe(self, value: float) -> None:
        """Record one observation of *value* (NaN is ignored — nothing was
        measured)."""
        if value != value:  # NaN
            return
        self.counts[bisect_left(LATENCY_BUCKET_EDGES, value)] += 1

    def update_sparse(self, sparse: Iterable[tuple[int, int]]) -> None:
        """Add the counts of a sparse transport tuple in place (exact merge)."""
        counts = self.counts
        for bucket, count in sparse:
            counts[bucket] += count

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Element-wise sum with *other* — the exact distributed reduction."""
        return LatencyHistogram(
            [a + b for a, b in zip(self.counts, other.counts)]
        )

    # --------------------------------------------------------------- queries
    @property
    def total(self) -> int:
        """Number of recorded observations."""
        return sum(self.counts)

    def as_sparse(self) -> tuple[tuple[int, int], ...]:
        """Non-empty buckets as sorted ``(bucket, count)`` pairs.

        This is the transport form carried by
        :class:`~repro.runtime.trace.TraceSummary`: a trace touches a handful
        of buckets, so the sparse tuple stays tiny, hashes/compares
        deterministically, and merges exactly via :meth:`update_sparse`.
        """
        return tuple((i, c) for i, c in enumerate(self.counts) if c)

    def quantile(self, q: float, overflow: float = float("inf")) -> float:
        """Upper bucket edge of the ``q``-quantile observation.

        The rank is ``ceil(q * total)`` (clamped to ``[1, total]``), i.e. the
        smallest observation such that at least a ``q`` fraction is at or
        below it — the standard nearest-rank definition, evaluated on bucket
        boundaries.  Returns NaN for an empty histogram and *overflow* when
        the rank lands in the overflow bucket (callers substitute the exact
        tracked maximum there).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        total = self.total
        if total == 0:
            return float("nan")
        rank = -int(-q * total // 1)  # ceil without importing math
        rank = min(max(rank, 1), total)
        cumulative = 0
        for bucket, count in enumerate(self.counts):
            cumulative += count
            if cumulative >= rank:
                if bucket >= len(LATENCY_BUCKET_EDGES):
                    return overflow
                return LATENCY_BUCKET_EDGES[bucket]
        raise AssertionError("unreachable: rank <= total")

    def as_dict(self) -> dict:
        """JSON-ready view: totals, the sparse buckets, and key quantiles."""
        return {
            "total": self.total,
            "buckets": {str(i): c for i, c in self.as_sparse()},
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatencyHistogram):
            return NotImplemented
        return self.counts == other.counts

    def __repr__(self) -> str:
        return f"LatencyHistogram(total={self.total}, buckets={len(self.as_sparse())})"


class MetricsRegistry:
    """Named counters, gauges and histograms for one instrumented run.

    The registry is the sink behind :class:`repro.obs.probe.MetricsProbe`; it
    is also usable directly for ad-hoc instrumentation.  Counters are
    integers, gauges are floats with ``set`` / ``max`` / ``add`` semantics,
    histograms are :class:`LatencyHistogram` instances created on demand.
    """

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, LatencyHistogram] = {}

    # -------------------------------------------------------------- counters
    def inc(self, name: str, amount: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + amount

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    # ---------------------------------------------------------------- gauges
    def set_gauge(self, name: str, value: float) -> None:
        self._gauges[name] = float(value)

    def max_gauge(self, name: str, value: float) -> None:
        """Keep the running maximum (peak gauges: live datasets, max latency)."""
        current = self._gauges.get(name)
        if current is None or value > current:
            self._gauges[name] = float(value)

    def add_gauge(self, name: str, delta: float) -> None:
        """Accumulate a float total (e.g. downtime seconds per span kind)."""
        self._gauges[name] = self._gauges.get(name, 0.0) + float(delta)

    def gauge(self, name: str) -> float | None:
        return self._gauges.get(name)

    # ------------------------------------------------------------ histograms
    def histogram(self, name: str) -> LatencyHistogram:
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = LatencyHistogram()
        return hist

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # ----------------------------------------------------------------- views
    @property
    def counters(self) -> Mapping[str, int]:
        return dict(sorted(self._counters.items()))

    @property
    def gauges(self) -> Mapping[str, float]:
        return dict(sorted(self._gauges.items()))

    @property
    def histograms(self) -> Mapping[str, LatencyHistogram]:
        return dict(sorted(self._histograms.items()))

    def as_dict(self) -> dict:
        """JSON-ready snapshot (what ``--metrics out.json`` writes)."""
        return {
            "counters": dict(sorted(self._counters.items())),
            "gauges": dict(sorted(self._gauges.items())),
            "histograms": {
                name: hist.as_dict()
                for name, hist in sorted(self._histograms.items())
            },
        }

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, histograms={len(self._histograms)})"
        )
