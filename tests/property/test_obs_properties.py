"""Property-based tests (hypothesis) of the merge-exact latency histograms.

The load-bearing invariant of `repro.obs.metrics`: because every histogram
lives on one global fixed bucket ladder, merging per-trial histograms and
then asking for a quantile gives *exactly* the answer of histogramming the
whole value set at once — for any partition, in any order.  This is what
lets campaigns report the percentiles of their trials' traces without ever
shipping a latency list across a process boundary.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import LatencyHistogram

# The ladder spans [1e-3, 1e6); draw mostly in-range plus under/overflow tails.
values = st.floats(
    min_value=1e-5, max_value=1e8, allow_nan=False, allow_infinity=False
)
value_lists = st.lists(values, min_size=1, max_size=60)
quantiles = st.floats(min_value=0.01, max_value=1.0)

FAST = settings(max_examples=100, deadline=None)


def _split(items, sizes):
    out, start = [], 0
    for size in sizes:
        out.append(items[start : start + size])
        start += size
    out.append(items[start:])
    return [chunk for chunk in out if chunk]


@FAST
@given(data=value_lists, cut=st.integers(min_value=0, max_value=60), q=quantiles)
def test_merged_quantiles_equal_whole_set_quantiles(data, cut, q):
    """Partition-invariance: merge(parts) ≡ histogram(whole), bucket-exactly."""
    cut = min(cut, len(data))
    parts = [LatencyHistogram.from_values(chunk) for chunk in _split(data, [cut])]
    merged = LatencyHistogram()
    for part in parts:
        merged = merged.merge(part)
    whole = LatencyHistogram.from_values(data)
    assert merged == whole
    assert merged.quantile(q) == whole.quantile(q)


@FAST
@given(
    a=value_lists, b=value_lists, c=value_lists, q=quantiles
)
def test_merge_is_associative_and_commutative(a, b, c, q):
    ha, hb, hc = (LatencyHistogram.from_values(v) for v in (a, b, c))
    left = ha.merge(hb).merge(hc)
    right = ha.merge(hb.merge(hc))
    swapped = hc.merge(ha).merge(hb)
    assert left == right == swapped
    assert left.quantile(q) == swapped.quantile(q)


@FAST
@given(data=value_lists)
def test_sparse_transport_round_trips(data):
    """The wire form (sorted non-zero buckets) loses nothing."""
    h = LatencyHistogram.from_values(data)
    sparse = h.as_sparse()
    assert LatencyHistogram.from_sparse(sparse) == h
    assert sorted(sparse) == list(sparse)
    assert sum(count for _, count in sparse) == h.total == len(data)


@FAST
@given(data=value_lists, q=quantiles)
def test_quantile_bounds_the_exact_value(data, q):
    """The reported quantile is an upper edge: ≥ the exact nearest-rank value,
    and within one bucket width (~8.5%) of it for in-range values."""
    h = LatencyHistogram.from_values(data)
    rank = max(1, -int(-q * len(data) // 1))
    exact = sorted(data)[rank - 1]
    reported = h.quantile(q, overflow=max(data))
    if 1e-3 <= exact < 1e6:
        assert exact <= reported or reported == max(data)
        if reported != max(data):
            assert reported <= exact * 1.085


@FAST
@given(data=st.lists(values, min_size=1, max_size=40), q=quantiles)
def test_quantile_is_monotone_in_q(data, q):
    h = LatencyHistogram.from_values(data)
    assert h.quantile(q) <= h.quantile(1.0)
    assert h.quantile(0.01) <= h.quantile(q)
