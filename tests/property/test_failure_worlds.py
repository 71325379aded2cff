"""Property-based and oracle tests for the failure-world regimes.

Two layers lock the new fault vocabulary down:

* **hypothesis invariants** on :class:`FaultTrace` and the samplers — the
  crash < repair < join tie-break is canonical under any input permutation,
  ``failed_at`` agrees with a naive replay of the interleaving at arbitrary
  query times, and sampled traces never crash a down processor or restore an
  up one (per regime family; mixing base renewals with spot preemption is the
  documented exception, as two independent clocks share a processor);
* **degenerate-parameter oracles** — every new regime with its knob at the
  identity value (singleton groups, zero load-coupling, replay of a sampled
  trace, elasticity disabled) is *bit-identical* to the historical
  independent regime, at the ``sample_fault_trace`` level, through
  ``Session.run_online``, and through ``run_suite``.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.experiments.sweep import run_suite
from repro.failures.scenarios import (
    FAULT_EVENT_KINDS,
    FaultEvent,
    FaultTrace,
    sample_fault_trace,
)
from repro.failures.trace_io import dump_fault_trace
from repro.platform.builders import heterogeneous_platform, homogeneous_platform
from repro.runtime.engine import OnlineRuntime
from repro.scenario import ScenarioSpec, SuiteSpec
from repro.scenario.run import (
    active_workload,
    build_fault_trace,
    build_schedule,
    build_workload,
    resolve_period,
    resolve_seeds,
)

SLOW = settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
FAST = settings(max_examples=50, deadline=None)

#: the documented tie-break, restated independently of the implementation.
KIND_RANK = {"crash": 0, "repair": 1, "join": 2}

# A small value pool so hypothesis actually produces (time, processor) ties.
times = st.one_of(st.sampled_from([0.0, 1.0, 2.0, 3.5]), st.floats(0, 50, allow_nan=False))
procs = st.sampled_from(["P1", "P2", "P3"])
events = st.lists(
    st.builds(FaultEvent, time=times, processor=procs, kind=st.sampled_from(FAULT_EVENT_KINDS)),
    max_size=20,
)


# ----------------------------------------------------------- trace invariants
@FAST
@given(events=events)
def test_event_order_is_canonical_under_permutation(events):
    trace = FaultTrace(tuple(events), horizon=100.0)
    expected = sorted(events, key=lambda e: (e.time, e.processor, KIND_RANK[e.kind]))
    assert list(trace.events) == expected
    reversed_trace = FaultTrace(tuple(reversed(events)), horizon=100.0)
    assert reversed_trace.events == trace.events


@FAST
@given(
    events=events,
    initially_down=st.sets(procs, max_size=3),
    query=st.one_of(st.sampled_from([0.0, 1.0, 2.0, 3.5]), st.floats(0, 60, allow_nan=False)),
)
def test_failed_at_matches_naive_replay(events, initially_down, query):
    trace = FaultTrace(tuple(events), horizon=100.0, initially_down=frozenset(initially_down))
    down = set(initially_down)
    for event in sorted(events, key=lambda e: (e.time, e.processor, KIND_RANK[e.kind])):
        if event.time > query:
            break
        if event.kind == "crash":
            down.add(event.processor)
        else:
            down.discard(event.processor)
    assert trace.failed_at(query) == frozenset(down)


def test_simultaneous_events_apply_crash_first():
    # crash+repair at one instant leaves the processor up; the input order of
    # the pair must not matter (the tie-break is intentional, not incidental).
    for pair in [("crash", "repair"), ("repair", "crash"), ("crash", "join"), ("join", "crash")]:
        trace = FaultTrace(
            tuple(FaultEvent(5.0, "P1", kind) for kind in pair), horizon=10.0
        )
        assert [e.kind for e in trace.events] == sorted(pair, key=KIND_RANK.__getitem__)
        assert trace.failed_at(5.0) == frozenset()


@SLOW
@given(
    seed=st.integers(0, 999),
    mttf=st.floats(5.0, 60.0),
    mttr=st.one_of(st.none(), st.floats(1.0, 20.0)),
    group_size=st.sampled_from([None, 2, 3]),
    load_coupling=st.floats(0.0, 2.0),
)
def test_renewal_traces_never_restore_an_up_processor(seed, mttf, mttr, group_size, load_coupling):
    platform = homogeneous_platform(6)
    names = platform.processor_names
    groups = None
    if group_size:
        groups = [names[i : i + group_size] for i in range(0, len(names), group_size)]
    trace = sample_fault_trace(
        platform, horizon=300.0, mttf=mttf, mttr=mttr, seed=seed,
        groups=groups, load_coupling=load_coupling,
        utilization={name: 0.5 for name in names},
    )
    down = set(trace.initially_down)
    for event in trace.events:
        if event.is_crash:
            assert event.processor not in down, "crashed a processor that was already down"
            down.add(event.processor)
        else:
            assert event.processor in down, "restored a processor that was already up"
            down.discard(event.processor)


@SLOW
@given(seed=st.integers(0, 999), spares=st.integers(1, 3), preempt=st.booleans())
def test_elastic_traces_never_restore_an_up_processor(seed, spares, preempt):
    # base renewals effectively disabled (mttf >> horizon) so the elastic
    # process is observed in isolation; see the module docstring for why.
    platform = homogeneous_platform(5)
    trace = sample_fault_trace(
        platform, horizon=200.0, mttf=1e12, seed=seed,
        spares=spares, join_mean=10.0, preempt_mean=40.0 if preempt else None,
    )
    assert trace.initially_down == frozenset(platform.processor_names[5 - spares :])
    down = set(trace.initially_down)
    for event in trace.events:
        if event.is_crash:
            assert event.processor not in down
            down.add(event.processor)
        else:
            assert event.processor in down
            down.discard(event.processor)


# ------------------------------------------------------- degenerate oracles
BASE = ScenarioSpec.from_dict(
    {
        "name": "oracle-base",
        "workload": {"num_tasks": 12, "num_processors": 6},
        "scheduler": {"epsilon": 1},
        "faults": {"mttf_periods": 30.0, "mttr_periods": 10.0},
        "runtime": {"num_datasets": 25},
    }
)


def _base_pipeline(spec, seed):
    """The (workload, schedule, fault trace) triple of one run of *spec*."""
    workload_seed, fault_seed = resolve_seeds(spec, seed)
    workload = build_workload(spec.workload, workload_seed)
    period = resolve_period(workload, spec.scheduler)
    schedule = build_schedule(active_workload(workload, spec.faults), spec.scheduler, period)
    trace = build_fault_trace(
        workload, spec.faults, schedule.period, spec.runtime.num_datasets,
        fault_seed, schedule=schedule,
    )
    return workload, schedule, trace


class TestDegenerateOracles:
    """Identity-knob settings reduce bit-for-bit to the independent regime."""

    @pytest.mark.parametrize("platform_builder", [
        lambda: homogeneous_platform(8),
        lambda: heterogeneous_platform(5, seed=7),
    ])
    def test_singleton_groups_sample_identically(self, platform_builder):
        platform = platform_builder()
        for seed in (0, 3):
            base = sample_fault_trace(platform, horizon=400.0, mttf=40.0, mttr=10.0, seed=seed)
            singleton = sample_fault_trace(
                platform, horizon=400.0, mttf=40.0, mttr=10.0, seed=seed,
                groups=[(name,) for name in platform.processor_names],
            )
            assert singleton == base

    def test_zero_load_coupling_samples_identically(self):
        platform = homogeneous_platform(8)
        util = {name: 0.7 for name in platform.processor_names}
        base = sample_fault_trace(platform, horizon=400.0, mttf=40.0, mttr=10.0, seed=1)
        uncoupled = sample_fault_trace(
            platform, horizon=400.0, mttf=40.0, mttr=10.0, seed=1,
            load_coupling=0.0, utilization=util,
        )
        assert uncoupled == base
        # and the knob is live: any positive coupling perturbs the stream
        coupled = sample_fault_trace(
            platform, horizon=400.0, mttf=40.0, mttr=10.0, seed=1,
            load_coupling=1.0, utilization=util,
        )
        assert coupled != base

    def test_group_size_one_is_identity_through_session(self):
        degenerate = BASE.updated({"faults.group_size": 1})
        for seed in (0, 7):
            assert Session(degenerate).run_online(seed).trace == Session(BASE).run_online(seed).trace

    def test_zero_coupling_is_identity_through_session(self):
        degenerate = BASE.updated({"faults.load_coupling": 0.0})
        for seed in (0, 7):
            assert Session(degenerate).run_online(seed).trace == Session(BASE).run_online(seed).trace

    def test_spares_zero_keeps_workload_object(self):
        workload, _, _ = _base_pipeline(BASE, 0)
        assert active_workload(workload, BASE.faults) is workload

    def test_replay_of_sampled_trace_is_identity_through_session(self, tmp_path):
        seed = 5
        _, _, trace = _base_pipeline(BASE, seed)
        assert trace.num_crashes > 0  # the oracle must replay real events
        path = tmp_path / "recorded.csv"
        dump_fault_trace(trace, path)
        replay = BASE.updated({"faults.trace_file": str(path)})
        assert Session(replay).run_online(seed).trace == Session(BASE).run_online(seed).trace

    def test_engine_platform_pool_is_identity_when_schedule_covers_it(self):
        workload, schedule, trace = _base_pipeline(BASE, 2)
        base = OnlineRuntime(schedule, trace).run(BASE.runtime.num_datasets)
        pooled = OnlineRuntime(schedule, trace, platform=schedule.platform).run(
            BASE.runtime.num_datasets
        )
        assert pooled == base

    def test_degenerate_suite_matches_base_suite_point_for_point(self):
        axes = {"faults.mttf_periods": (30.0, 60.0)}
        base_suite = SuiteSpec(base=BASE, axes=axes, name="oracle", trials=2, seed=4)
        degenerate = SuiteSpec(
            base=BASE.updated({"faults.group_size": 1, "faults.load_coupling": 0.0}),
            axes=axes, name="oracle", trials=2, seed=4,
        )
        a = run_suite(base_suite, jobs=1)
        b = run_suite(degenerate, jobs=1)
        assert [p.seed for p in a.points] == [p.seed for p in b.points]
        assert [p.stats for p in a.points] == [p.stats for p in b.points]
