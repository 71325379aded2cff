"""Properties of the finish-time bounds the mapping engine prunes with.

LTF and R-LTF plan a candidate processor only while its finish-time bound
(:func:`repro.schedule.schedule.finish_floor`) does not exceed the best
finish found, so the schedules stay the ones exhaustive planning builds
only if no plan ever finishes below its bound.  The checks:

* ``Timeline.slot_floor`` never exceeds the slot a later request gets, on
  timelines whose intervals touch within the tolerance and for requests
  that nearly fill a gap (where ``earliest_slot`` is not monotone);
* on random paper workloads (LTF and R-LTF, ε 0–2, 10 and 20 processors),
  at every decision of a build, every fully-fed and chain candidate plan
  finishes no earlier than its bound, and the pruned searches return the
  plans that planning every candidate returns;
* on identical processors, where finish times tie and the load and the
  name decide, a pruned build equals an unpruned one.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import MappingEngine
from repro.core.ltf import LTFPolicy, ltf_schedule
from repro.core.rltf import RLTFPolicy, rltf_schedule
from repro.exceptions import SchedulingError
from repro.graph.dag import TaskGraph
from repro.experiments.config import ExperimentConfig, workload_period
from repro.graph.generator import random_layered_dag, random_paper_workload
from repro.platform.builders import homogeneous_platform
from repro.utils.intervals import _EPS, Timeline

SLOW = settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
FAST = settings(max_examples=100, deadline=None)
#: exact ties are rare even on identical processors, so this one draws more
TIES = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# --------------------------------------------------------------------- timeline
@st.composite
def _gapped_timelines(draw):
    """A timeline of intervals that touch within ``_EPS`` or leave gaps,
    and a request length equal to one of its gaps give or take ``2·_EPS``."""
    tl = Timeline()
    gaps = []
    instant = draw(st.floats(0, 5))
    for _ in range(draw(st.integers(0, 8))):
        gap = draw(st.sampled_from([0.0, -_EPS / 2, _EPS / 2]) | st.floats(0, 3))
        length = draw(st.floats(0.01, 4))
        start = instant + gap
        if start >= 0 and tl.is_free(start, length):
            if tl:
                gaps.append(start - instant)
            tl.reserve(start, length)
            instant = start + length
    shift = draw(st.sampled_from([k * _EPS for k in (-2, -1.5, -1, -0.5, 0, 0.5, 1, 1.5, 2)]))
    base = draw(st.sampled_from(gaps)) if gaps else 1.0
    duration = draw(st.sampled_from([max(base + shift, 0.0)]) | st.floats(0.01, 5))
    return tl, duration


def _instant(timeline):
    points = [0.0] + [x for iv in timeline for x in (iv.start, iv.end)]
    return st.sampled_from(points).flatmap(
        lambda p: st.sampled_from([p + k * _EPS for k in (-2, -1, -0.5, 0, 0.5, 1, 2)])
    ) | st.floats(0, 40)


@FAST
@given(data=st.data())
def test_slot_floor_bounds_every_later_request(data):
    tl, duration = data.draw(_gapped_timelines())
    ready = max(data.draw(_instant(tl)), 0.0)
    later = max(data.draw(_instant(tl)), ready)
    floor = tl.slot_floor(ready, duration)
    assert ready <= floor <= tl.slot_floor(later, duration)
    assert floor <= tl.earliest_slot(ready, duration)
    assert floor <= tl.earliest_slot(later, duration)


# ------------------------------------------------------------------- candidates
@contextmanager
def _checked_decisions(policy_class, seen):
    """Before *policy_class* decides a replica, plan every candidate in full
    and compare the plans with their bounds and with the pruned searches."""
    real = policy_class.choose

    def choose(self, engine: MappingEngine, task, ctx):
        _check_candidates(engine, task, ctx, seen)
        return real(self, engine, task, ctx)

    with mock.patch.object(policy_class, "choose", choose):
        yield


def _choice(plan):
    return None if plan is None else (plan.processor, plan.finish, plan.one_to_one)


def _exhaustive(engine, plans):
    """The choice planning every candidate makes: earliest finish, then the
    least-loaded processor, then the name."""
    feasible = [p for p in plans if p is not None]
    key = lambda p: (p.finish, engine.schedule.compute_load(p.processor), p.processor)
    return _choice(min(feasible, key=key, default=None))


def _check_candidates(engine, task, ctx, seen):
    regular, chains = [], []
    for proc in engine.platform.processor_names:
        if proc in ctx.used_kill:
            continue
        plan = engine.full_plan(task, proc, ctx)
        assert plan.finish >= engine.regular_floor(task, proc, ctx), (task, proc)
        regular.append(engine._feasible(plan))
        seen["regular"] += 1
        bound = engine.chain_floor(task, proc, ctx)
        chain = engine.chain_plan(task, ctx, proc)
        if chain is not None:
            assert chain.finish >= bound, (task, proc)
            seen["chain"] += 1
        chains.append(engine._feasible(chain))
    assert _choice(engine.plan_regular_best(task, ctx)) == _exhaustive(engine, regular)
    if engine.graph.predecessors(task):
        assert _choice(engine.plan_chain(task, ctx)) == _exhaustive(engine, chains)


@SLOW
@given(
    seed=st.integers(0, 10_000),
    num_tasks=st.integers(8, 30),
    num_processors=st.sampled_from([10, 20]),
    epsilon=st.integers(0, 2),
    slack=st.sampled_from([1.2, 2.0]),
    rltf=st.booleans(),
)
def test_no_candidate_finishes_below_its_bound(
    seed, num_tasks, num_processors, epsilon, slack, rltf
):
    workload = random_paper_workload(
        1.0, seed=seed, num_tasks=num_tasks, num_processors=num_processors
    )
    period = workload_period(workload, epsilon, ExperimentConfig(period_slack=slack))
    build, policy = (rltf_schedule, RLTFPolicy) if rltf else (ltf_schedule, LTFPolicy)
    seen = {"regular": 0, "chain": 0}
    with _checked_decisions(policy, seen):
        try:
            build(workload.graph, workload.platform, period=period, epsilon=epsilon)
        except SchedulingError:
            pass  # every decision up to the failure was checked
    assert seen["regular"] > 0


def _outcome(build):
    try:
        schedule = build()
    except SchedulingError as exc:
        return repr(exc)
    return (
        [
            (rep, schedule.processor_of(rep), schedule.start_time(rep), schedule.finish_time(rep))
            for rep in schedule.all_replicas()
        ],
        schedule.comm_events,
        sorted(schedule.stats.items()),
    )


def _integral_dag(num_tasks, seed):
    """A random layered DAG with small whole works and volumes, so that
    finish times tie exactly on identical processors."""
    shape = random_layered_dag(num_tasks=num_tasks, seed=seed)
    graph = TaskGraph("integral")
    for task in shape.tasks:
        graph.add_task(task.name, float(1 + int(task.work) % 4))
    for src, dst, volume in shape.edges():
        graph.add_edge(src, dst, float(1 + int(volume) % 3))
    return graph


@TIES
@given(
    seed=st.integers(0, 10_000),
    num_tasks=st.integers(5, 25),
    num_processors=st.integers(3, 8),
    epsilon=st.integers(0, 2),
    slack=st.sampled_from([0.6, 1.0, 3.0]),
    rltf=st.booleans(),
)
def test_pruning_keeps_ties_on_identical_processors(
    seed, num_tasks, num_processors, epsilon, slack, rltf
):
    graph = _integral_dag(num_tasks, seed)
    platform = homogeneous_platform(num_processors)
    epsilon = min(epsilon, num_processors - 1)
    period = slack * (epsilon + 1) * graph.total_work / num_processors
    build = rltf_schedule if rltf else ltf_schedule
    run = lambda: build(graph, platform, period=period, epsilon=epsilon)
    pruned = _outcome(run)
    with mock.patch("repro.core.engine.finish_floor", lambda *args: float("-inf")):
        assert _outcome(run) == pruned
