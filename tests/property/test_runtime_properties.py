"""Property-based tests (hypothesis) of the online runtime.

Invariants promised by the design:

* with **zero fault arrivals** the runtime is exactly the offline
  :class:`~repro.failures.simulator.StreamingSimulator` — same per-dataset
  latencies, same achieved period (and the incremental kernel admission is
  equivalent to the batch admission the simulator uses);
* with **at most ε crashes** charged against the initial schedule, active
  replication absorbs every failure: no rebuild happens and no data set is
  ever lost — with *either* admission policy (``queue`` with an unbounded
  buffer loses nothing that shed would have kept);
* with **checkpointing disabled** the engine reproduces the historical
  flush-and-restart traces exactly: each batch of releases between two state
  changes is simulated from a cold pipeline (checked against a direct
  cold-kernel ``admit_batch`` oracle).
"""

from __future__ import annotations

import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ltf import ltf_schedule
from repro.core.rltf import rltf_schedule
from repro.failures.scenarios import FaultEvent, FaultTrace
from repro.failures.simulator import StreamingSimulator, simulate_stream
from repro.graph.examples import figure2_graph
from repro.platform.builders import figure2_platform
from repro.runtime.admission import QueueAdmissionPolicy
from repro.runtime.engine import OnlineRuntime
from repro.sim.kernel import PipelineKernel

SLOW = settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# Built once: hypothesis drives the fault process, not the schedule.  The
# ≤ ε-crash property needs kill-set-disjoint replicas for *every* crash
# pattern, which is exactly what strict_resilience guarantees.
_EPS1 = ltf_schedule(
    figure2_graph(), figure2_platform(10), throughput=0.05, epsilon=1,
    strict_resilience=True,
)
_EPS2 = rltf_schedule(
    figure2_graph(), figure2_platform(10), throughput=0.04, epsilon=2,
    strict_resilience=True,
)


def _empty(schedule, num_datasets: int) -> FaultTrace:
    return FaultTrace((), horizon=num_datasets * schedule.period)


# ------------------------------------------------------- zero-fault equivalence
@SLOW
@given(num_datasets=st.integers(min_value=1, max_value=40))
def test_no_faults_matches_offline_simulator(num_datasets):
    trace = OnlineRuntime(_EPS1, _empty(_EPS1, num_datasets)).run(num_datasets)
    sim = simulate_stream(_EPS1, num_datasets=num_datasets)
    assert trace.latencies == sim.latencies
    assert trace.achieved_period == sim.achieved_period
    assert trace.completed_count == num_datasets
    assert trace.num_rebuilds == 0
    assert trace.downtime == 0.0


@SLOW
@given(num_datasets=st.integers(min_value=1, max_value=30))
def test_incremental_kernel_admission_matches_batch(num_datasets):
    """Zero-fault invariant at the kernel level: admit() ≡ admit_batch()."""
    period = _EPS1.period
    batch = PipelineKernel(_EPS1)
    batch.admit_batch([j * period for j in range(num_datasets)])
    drained = batch.run_to_completion()
    incremental = PipelineKernel(_EPS1)
    for j in range(num_datasets):
        incremental.admit(j, j * period)
    assert incremental.run_to_completion() == drained
    sim = StreamingSimulator(_EPS1).run(num_datasets)
    done = dict(drained)
    assert tuple(done[j] for j in range(num_datasets)) == sim.completion_times


# ------------------------------------------------- ≤ ε crashes lose no data set
@SLOW
@given(data=st.data(), num_datasets=st.integers(min_value=5, max_value=25))
def test_single_crash_within_epsilon_loses_nothing(data, num_datasets):
    used = sorted(_EPS1.used_processors())
    victim = data.draw(st.sampled_from(used))
    when = data.draw(st.floats(min_value=0.0, max_value=float(num_datasets - 1)))
    events = (FaultEvent(when * _EPS1.period, victim, "crash"),)
    trace = OnlineRuntime(
        _EPS1, FaultTrace(events, horizon=num_datasets * _EPS1.period)
    ).run(num_datasets)
    assert trace.num_rebuilds == 0
    assert trace.lost_count == 0
    assert trace.completed_count == num_datasets
    assert all(record.completed for record in trace.records)


@SLOW
@given(data=st.data(), num_datasets=st.integers(min_value=5, max_value=20))
def test_two_crashes_within_epsilon2_lose_nothing(data, num_datasets):
    used = sorted(_EPS2.used_processors())
    pairs = list(itertools.combinations(used, 2))
    victims = data.draw(st.sampled_from(pairs))
    t1 = data.draw(st.floats(min_value=0.0, max_value=float(num_datasets - 2)))
    t2 = data.draw(st.floats(min_value=t1, max_value=float(num_datasets - 1)))
    events = (
        FaultEvent(t1 * _EPS2.period, victims[0], "crash"),
        FaultEvent(t2 * _EPS2.period, victims[1], "crash"),
    )
    trace = OnlineRuntime(
        _EPS2, FaultTrace(events, horizon=num_datasets * _EPS2.period)
    ).run(num_datasets)
    assert trace.num_rebuilds == 0
    assert trace.lost_count == 0
    assert trace.completed_count == num_datasets


@SLOW
@given(data=st.data(), num_datasets=st.integers(min_value=5, max_value=25))
def test_queue_admission_unbounded_loses_nothing_within_epsilon(data, num_datasets):
    """Queue admission with an unbounded buffer keeps every ≤ε-tolerated data set."""
    used = sorted(_EPS1.used_processors())
    victim = data.draw(st.sampled_from(used))
    when = data.draw(st.floats(min_value=0.0, max_value=float(num_datasets - 1)))
    events = (FaultEvent(when * _EPS1.period, victim, "crash"),)
    trace = OnlineRuntime(
        _EPS1,
        FaultTrace(events, horizon=num_datasets * _EPS1.period),
        admission=QueueAdmissionPolicy(capacity=None),
    ).run(num_datasets)
    assert trace.num_rebuilds == 0
    assert trace.lost_count == 0
    assert trace.completed_count == num_datasets
    assert trace.admission == "queue"


# ------------------------------------- checkpoint off ≡ flush-and-restart trace
def _flush_and_restart_oracle(schedule, victim: str, crash_time: float, num_datasets: int):
    """Reference flush-and-restart records for one tolerated crash.

    The historical engine cuts the stream at the crash: data sets released
    strictly before it are simulated from a cold pipeline under no failures;
    data sets released after it are simulated from a *new* cold pipeline under
    the crash set, with releases measured from the crash instant.  Every data
    set is admitted (one crash within ε never sheds), so the oracle is a pair
    of cold-kernel ``admit_batch`` runs.
    """
    period = schedule.period
    tol = 1e-9 * period
    releases = [j * period for j in range(num_datasets)]
    before = [j for j in range(num_datasets) if releases[j] < crash_time - tol]
    after = [j for j in range(num_datasets) if j not in before]
    completions: dict[int, float] = {}
    if before:
        kernel = PipelineKernel(schedule)
        kernel.admit_batch([releases[j] for j in before])
        done = dict(kernel.run_to_completion())
        for k, j in enumerate(before):
            completions[j] = done[k]
    if after:
        kernel = PipelineKernel(schedule, frozenset([victim]))
        kernel.admit_batch([max(0.0, releases[j] - crash_time) for j in after])
        done = dict(kernel.run_to_completion())
        for k, j in enumerate(after):
            completions[j] = crash_time + done[k]
    return completions


@SLOW
@given(data=st.data(), num_datasets=st.integers(min_value=4, max_value=20))
def test_checkpoint_disabled_equals_flush_and_restart_trace(data, num_datasets):
    used = sorted(_EPS1.used_processors())
    victim = data.draw(st.sampled_from(used))
    when = data.draw(
        st.floats(min_value=0.25, max_value=float(num_datasets) - 0.25)
    )
    crash_time = when * _EPS1.period
    events = (FaultEvent(crash_time, victim, "crash"),)
    trace = OnlineRuntime(
        _EPS1,
        FaultTrace(events, horizon=num_datasets * _EPS1.period),
        checkpoint=False,
    ).run(num_datasets)
    oracle = _flush_and_restart_oracle(_EPS1, victim, crash_time, num_datasets)
    assert trace.completed_count == num_datasets
    for record in trace.records:
        assert record.completed
        assert record.completion == oracle[record.index]
