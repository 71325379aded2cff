"""Property-based tests (hypothesis) of the online runtime.

Invariants promised by the design:

* with **zero fault arrivals** the runtime completes every data set when a
  one-shot ``admit_batch`` of the whole stream does, and the offline run
  (unbounded queue admission) is the same run (the incremental kernel
  admission is equivalent to the batch admission);
* with **at most ε crashes** charged against the initial schedule, active
  replication absorbs every failure: no rebuild happens and no data set is
  ever lost — with *either* admission policy (``queue`` with an unbounded
  buffer loses nothing that shed would have kept);
* processors **down from the start** (the fault trace's ``initially_down``)
  execute nothing: the run is the batch admission's under that crash set.
"""

from __future__ import annotations

import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from conftest import batch_completions, completions, offline_run

from repro.core.ltf import ltf_schedule
from repro.core.rltf import rltf_schedule
from repro.failures.scenarios import FaultEvent, FaultTrace
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
def test_no_faults_matches_batch_reference(num_datasets):
    trace = OnlineRuntime(_EPS1, _empty(_EPS1, num_datasets)).run(num_datasets)
    assert completions(trace) == batch_completions(_EPS1, num_datasets)
    offline = offline_run(_EPS1, num_datasets)
    assert offline.records == trace.records
    assert offline.achieved_period == trace.achieved_period
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


# ------------------------------------ processors down from the start ≡ crash set
@SLOW
@given(data=st.data(), num_datasets=st.integers(min_value=1, max_value=40))
def test_initially_down_matches_batch_reference(data, num_datasets):
    """Scheduled processors listed in ``initially_down`` execute nothing: the
    run, and the offline run, are the batch admission's under that crash
    set."""
    schedule = data.draw(st.sampled_from([_EPS1, _EPS2]))
    down = data.draw(
        st.sets(st.sampled_from(sorted(schedule.used_processors())), max_size=schedule.epsilon)
    )
    faults = FaultTrace((), horizon=num_datasets * schedule.period, initially_down=down)
    trace = OnlineRuntime(schedule, faults).run(num_datasets)
    expected = batch_completions(schedule, num_datasets, down)
    assert completions(trace) == expected
    assert completions(offline_run(schedule, num_datasets, down)) == expected
    assert trace.num_rebuilds == 0
    assert not down & set(trace.final_alive)
