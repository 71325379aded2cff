"""Property tests of the kernel's eviction watermark and windowed admission.

Eviction is pure book-keeping: under arbitrary fault injections every
admitted data set is either drained exactly once or still pending, and every
admitted data set holds a live record or has been evicted.  The windowed
per-data-set admission the online runtime drives (on sequence numbers the
kernel reserved ahead) is an event-for-event re-expression of one-shot
``admit_batch`` on the same release list.  The memory regression
test then pins down what the eviction buys: peak kernel memory bounded by
the pipeline depth, not the stream length.
"""

from __future__ import annotations

import math
import tracemalloc

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from conftest import batch_completions, completions, offline_run

from repro.core.ltf import ltf_schedule
from repro.graph.examples import figure2_graph
from repro.graph.generator import fork_join_graph
from repro.platform.builders import figure2_platform, homogeneous_platform
from repro.schedule.validation import valid_replicas_under_failures
from repro.sim.kernel import PipelineKernel

SLOW = settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])

_EPS1 = ltf_schedule(
    figure2_graph(), figure2_platform(10), throughput=0.05, epsilon=1,
    strict_resilience=True,
)

# A fork-join whose transfers land on an entry replica's processor exactly at
# a release instant: the windowed drive only matches the one-shot admission
# on it because a reserved release sequence number orders each release before
# every same-instant event pushed before it was admitted.
_FORK_JOIN = ltf_schedule(
    fork_join_graph(3, work=8.0, volume=4.0), homogeneous_platform(6),
    throughput=0.04, epsilon=1,
)


def _drive(kernel: PipelineKernel, num_datasets: int, crashes):
    """One deterministic script: interleaved admission, crashes, final drain.

    Returns everything observable: the concatenated drains (completion order
    and instants), the pending set at the end, and the checkpoint of every
    pending data set.
    """
    period = _EPS1.period
    crash_iter = sorted(crashes)
    drained = []
    for j in range(num_datasets):
        release = j * period
        while crash_iter and crash_iter[0][0] <= release:
            when, victim = crash_iter.pop(0)
            drained += kernel.run_until(when)
            kernel.crash(victim)
        kernel.admit(j, release)
        if j % 7 == 3:
            drained += kernel.run_until(release)
    for when, victim in crash_iter:
        drained += kernel.run_until(when)
        kernel.crash(victim)
    drained += kernel.run_to_completion()
    pending = kernel.pending_datasets()
    checkpoints = {j: kernel.completed_tasks(j) for j in pending}
    return drained, pending, checkpoints


@SLOW
@given(data=st.data(), num_datasets=st.integers(min_value=1, max_value=30))
def test_eviction_accounts_for_every_admitted_dataset(data, num_datasets):
    """Drained exactly once or still pending; live or evicted; and nothing
    lost while the crash set leaves every exit task a valid replica."""
    used = sorted(_EPS1.used_processors())
    crashes = data.draw(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=float(num_datasets) * _EPS1.period),
                st.sampled_from(used),
            ),
            max_size=2,
            unique_by=lambda c: c[1],
        )
    )
    kernel = PipelineKernel(_EPS1)
    drained, pending, checkpoints = _drive(kernel, num_datasets, crashes)
    indices = [j for j, _ in drained]
    assert len(indices) == len(set(indices))  # drained at most once
    assert pending == tuple(j for j in range(num_datasets) if j not in set(indices))
    assert kernel.live_datasets + kernel.evicted_datasets == num_datasets
    assert kernel.evicted_datasets == len(indices)
    assert all(kernel.completion_of(j) is None for j in indices)  # evicted
    assert all(tasks < frozenset(_EPS1.graph.task_names) for tasks in checkpoints.values())
    valid = valid_replicas_under_failures(_EPS1, {victim for _, victim in crashes})
    if all(valid[task] for task in _EPS1.graph.exit_tasks()):
        assert sorted(indices) == list(range(num_datasets))


def _windowed_drive(kernel, num_datasets: int, window: int, crash):
    """A windowed drive: admit one window, run to just below the next
    window's first release; *crash* fires at a window boundary."""
    period = kernel.schedule.period
    drained = []
    j = 0
    while j < num_datasets:
        stop = min(j + window, num_datasets)
        for k in range(j, stop):
            kernel.admit(k, k * period)
        j = stop
        drained += kernel.run_until(math.nextafter(j * period, -math.inf))
        if crash is not None and crash[0] == j:
            kernel.crash(crash[1])
    return drained + kernel.run_to_completion()


def _batch_drive(kernel, num_datasets: int, crash):
    """One-shot admit_batch of the same releases, the same crash instant."""
    period = kernel.schedule.period
    kernel.admit_batch([j * period for j in range(num_datasets)])
    drained = []
    if crash is not None:
        drained += kernel.run_until(math.nextafter(crash[0] * period, -math.inf))
        kernel.crash(crash[1])
    return drained + kernel.run_to_completion()


@SLOW
@given(
    data=st.data(),
    num_datasets=st.integers(min_value=1, max_value=60),
    window=st.integers(min_value=1, max_value=70),
)
def test_windowed_admission_matches_batch(data, num_datasets, window):
    """Per-data-set admit by window + run_until below each boundary ≡ admit_batch,
    drain for drain, under a start-up crash set and a crash at a window
    boundary."""
    schedule = data.draw(st.sampled_from([_EPS1, _FORK_JOIN]))
    used = sorted(schedule.used_processors())
    failed = data.draw(st.lists(st.sampled_from(used), max_size=2, unique=True))
    valid = valid_replicas_under_failures(schedule, failed)
    assume(all(valid[task] for task in schedule.graph.exit_tasks()))
    boundaries = list(range(window, num_datasets, window))
    crash = None
    if boundaries and data.draw(st.booleans()):
        crash = (data.draw(st.sampled_from(boundaries)), data.draw(st.sampled_from(used)))
    windowed = PipelineKernel(schedule, failed)
    windowed.reserve(num_datasets)
    batch = PipelineKernel(schedule, failed)
    assert _windowed_drive(windowed, num_datasets, window, crash) == _batch_drive(
        batch, num_datasets, crash
    )
    assert windowed.pending_datasets() == batch.pending_datasets()
    assert windowed.evicted_datasets == batch.evicted_datasets


def _peak_memory(num_datasets: int) -> int:
    """Peak traced allocation of a windowed incremental run of *num_datasets*."""
    kernel = PipelineKernel(_EPS1)
    period = _EPS1.period
    tracemalloc.start()
    try:
        for j in range(num_datasets):
            kernel.admit(j, j * period)
            if j % 32 == 31:
                kernel.run_until(j * period)
        kernel.run_to_completion()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kernel.evicted_datasets == num_datasets
    assert kernel.live_datasets == 0
    return peak


def test_eviction_bounds_peak_memory_sublinearly():
    """4× the stream must cost far less than 4× the memory."""
    small, large = 400, 1600
    evict_small = _peak_memory(small)
    evict_large = _peak_memory(large)
    assert evict_large < 2.0 * evict_small, (
        f"evicting kernel peak grew {evict_large / evict_small:.2f}x "
        f"over a 4x longer stream ({evict_small} -> {evict_large} bytes)"
    )


def test_eviction_watermark_tracks_live_state():
    kernel = PipelineKernel(_EPS1)
    period = _EPS1.period
    for j in range(64):
        kernel.admit(j, j * period)
        kernel.run_until(j * period)
    assert kernel.peak_live_datasets < 64  # eviction ran *during* the stream
    kernel.run_to_completion()
    assert kernel.evicted_datasets == 64
    assert kernel.completion_of(0) is None  # history is gone, by design
    assert kernel.pending_datasets() == ()


def test_evicted_index_cannot_be_readmitted():
    """The duplicate-admission guard survives eviction: a retired index is
    rejected (watermark check) instead of silently re-running."""
    import pytest

    from repro.exceptions import ScheduleError

    kernel = PipelineKernel(_EPS1)
    kernel.admit(0, 0.0)
    kernel.run_to_completion()
    assert kernel.evicted_datasets == 1
    with pytest.raises(ScheduleError, match="already admitted"):
        kernel.admit(0, 1.0)
    with pytest.raises(ScheduleError, match="already admitted"):
        kernel.admit_batch([0.0, _EPS1.period])
    kernel.admit(1, _EPS1.period)  # fresh indices above the watermark are fine
    kernel.run_to_completion()
    assert kernel.evicted_datasets == 2


def test_offline_run_matches_batch_on_release_ties():
    """On the fork-join, transfers tie with releases: the offline engine
    run's windowed admission must still reproduce the one-shot admission
    exactly."""
    n = 600  # more than two admission windows
    assert completions(offline_run(_FORK_JOIN, n)) == batch_completions(_FORK_JOIN, n)
