"""Property-based tests (hypothesis) on the core data structures and invariants."""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ltf import ltf_schedule
from repro.core.rltf import rltf_schedule
from repro.exceptions import SchedulingError
from repro.graph.analysis import (
    bottom_levels,
    critical_path_length,
    granularity,
    graph_width,
    top_levels,
)
from repro.graph.dag import TaskGraph
from repro.graph.generator import random_layered_dag, random_series_parallel
from repro.platform.builders import heterogeneous_platform, homogeneous_platform
from repro.schedule.metrics import communication_count, latency_upper_bound
from repro.schedule.stages import compute_stages, num_stages
from repro.schedule.validation import check_resilience, validate_schedule
from repro.utils.intervals import _EPS, ScratchTimeline, Timeline, earliest_common_slot

# Keep hypothesis examples modest: each example builds graphs and schedules.
SLOW = settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
FAST = settings(max_examples=50, deadline=None)


# --------------------------------------------------------------------- timeline
@FAST
@given(
    reservations=st.lists(
        st.tuples(st.floats(0, 50), st.floats(0.1, 5)), min_size=0, max_size=15
    ),
    ready=st.floats(0, 60),
    duration=st.floats(0.1, 5),
)
def test_timeline_earliest_slot_is_free_and_after_ready(reservations, ready, duration):
    tl = Timeline()
    for start, dur in reservations:
        if tl.is_free(start, dur):
            tl.reserve(start, dur)
    slot = tl.earliest_slot(ready, duration)
    assert slot >= ready
    assert tl.is_free(slot, duration)


@FAST
@given(
    reservations=st.lists(
        st.tuples(st.floats(0, 50), st.floats(0.1, 5)), min_size=0, max_size=15
    )
)
def test_timeline_busy_time_is_sum_of_reserved_durations(reservations):
    tl = Timeline()
    total = 0.0
    for start, dur in reservations:
        if tl.is_free(start, dur):
            tl.reserve(start, dur)
            total += dur
    assert tl.busy_time == pytest.approx(total)


# ------------------------------------------------- timeline fast path oracles
def _naive_earliest_slot(timeline, ready, duration):
    """The full-scan slot search the bisected one must reproduce."""
    if duration <= _EPS:
        return ready
    candidate = ready
    for iv in timeline.intervals:
        if iv.end <= candidate + _EPS:
            continue
        if iv.start >= candidate + duration - _EPS:
            break
        candidate = max(candidate, iv.end)
    return candidate


def _naive_common_slot(timelines, ready, duration):
    """Full passes over every timeline until one pass moves nothing."""
    if duration <= _EPS or not timelines:
        return ready
    candidate = ready
    while True:
        moved = False
        for tl in timelines:
            slot = _naive_earliest_slot(tl, candidate, duration)
            if slot > candidate + _EPS:
                candidate, moved = slot, True
        if not moved:
            return candidate


#: gaps between consecutive reservations: back to back, overlapping or
#: separated by less than the tolerance, and ordinary gaps
_gaps = st.sampled_from([0.0, _EPS / 2, -_EPS / 2, _EPS, -_EPS, 2 * _EPS]) | st.floats(0, 4)
#: request lengths, including zero-length and sub-tolerance requests
_durations = st.sampled_from([0.0, _EPS / 2, _EPS]) | st.floats(0.01, 6)


@st.composite
def _timelines(draw):
    """A timeline whose intervals often touch within ``_EPS``."""
    tl = Timeline()
    instant = draw(st.floats(0, 5))
    for gap, length in draw(st.lists(st.tuples(_gaps, st.floats(0.01, 5)), max_size=12)):
        start = instant + gap
        if start >= 0 and tl.is_free(start, length):
            tl.reserve(start, length)
            instant = start + length
    return tl


def _instants(timeline):
    """Ready instants at, just around and between the interval endpoints."""
    points = [0.0] + [x for iv in timeline for x in (iv.start, iv.end)]
    return st.sampled_from(points).flatmap(
        lambda p: st.sampled_from([p + k * _EPS for k in (-2, -1.5, -1, -0.5, 0, 0.5, 1)])
    ) | st.floats(0, 80)


@FAST
@given(data=st.data())
def test_bisected_earliest_slot_equals_full_scan(data):
    tl = data.draw(_timelines())
    ready = data.draw(_instants(tl))
    duration = data.draw(_durations)
    assert tl.earliest_slot(ready, duration) == _naive_earliest_slot(tl, ready, duration)
    assert ScratchTimeline(tl).earliest_slot(ready, duration) == _naive_earliest_slot(
        tl, ready, duration
    )


@FAST
@given(data=st.data())
def test_scratch_planning_equals_copy_and_reserve(data):
    """Planning transfers on scratch overlays of two ports gives the same
    starts as planning them on copies with checked reservations, and leaves
    the ports untouched."""
    out_port, in_port = data.draw(_timelines()), data.draw(_timelines())
    before = (out_port.intervals, in_port.intervals)
    scratch = (ScratchTimeline(out_port), ScratchTimeline(in_port))
    copies = (out_port.copy(), in_port.copy())
    for _ in range(data.draw(st.integers(1, 6))):
        ready = data.draw(_instants(in_port))
        duration = data.draw(_durations)
        start = earliest_common_slot(scratch, ready, duration)
        assert start == earliest_common_slot(copies, ready, duration)
        assert start == _naive_common_slot(copies, ready, duration)
        for tl in scratch:
            tl.occupy(start, duration)
        for tl in copies:
            tl.reserve(start, duration)
    assert (out_port.intervals, in_port.intervals) == before


# ------------------------------------------------------------------------ graph
graph_strategy = st.builds(
    lambda n, seed: random_layered_dag(num_tasks=n, seed=seed),
    n=st.integers(5, 40),
    seed=st.integers(0, 10_000),
)


@SLOW
@given(graph=graph_strategy)
def test_topological_order_is_consistent(graph):
    order = graph.topological_order()
    assert sorted(order) == sorted(graph.task_names)
    position = {t: i for i, t in enumerate(order)}
    for src, dst, _ in graph.edges():
        assert position[src] < position[dst]


@SLOW
@given(graph=graph_strategy)
def test_levels_are_consistent_with_critical_path(graph):
    tl, bl = top_levels(graph), bottom_levels(graph)
    cp = critical_path_length(graph)
    assert all(tl[t] + bl[t] <= cp + 1e-6 for t in graph.task_names)
    assert any(math.isclose(tl[t] + bl[t], cp, rel_tol=1e-9) for t in graph.task_names)


@SLOW
@given(graph=graph_strategy, factor=st.floats(0.1, 10))
def test_granularity_scales_linearly_with_work(graph, factor):
    if graph.num_edges == 0:
        return
    base = granularity(graph)
    scaled = granularity(graph.scaled(work_factor=factor))
    assert scaled == pytest.approx(base * factor, rel=1e-6)


def _networkx_width(graph) -> int:
    """Dilworth's width the networkx way: the number of tasks minus a maximum
    matching of the bipartite graph of the transitive closure (the
    computation ``graph_width`` made before it stopped importing networkx)."""
    nx = pytest.importorskip("networkx")
    closure = nx.transitive_closure_dag(graph.to_networkx())
    left = {f"L::{n}" for n in closure.nodes}
    bipartite = nx.Graph()
    bipartite.add_nodes_from(left, bipartite=0)
    bipartite.add_nodes_from((f"R::{n}" for n in closure.nodes), bipartite=1)
    for u, v in closure.edges:
        bipartite.add_edge(f"L::{u}", f"R::{v}")
    matching = nx.bipartite.maximum_matching(bipartite, top_nodes=left)
    return graph.num_tasks - sum(1 for k in matching if k.startswith("L::"))


@st.composite
def _any_dags(draw):
    """A DAG of 1-40 tasks with any edge set (edges point to later tasks)."""
    n = draw(st.integers(1, 40))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    return TaskGraph.from_edges(
        {f"t{i}": 1.0 for i in range(n)},
        {(f"t{min(i, j)}", f"t{max(i, j)}", 1.0) for i, j in pairs if i != j},
    )


@FAST
@given(graph=graph_strategy | _any_dags())
def test_graph_width_equals_the_networkx_dilworth_width(graph):
    assert graph_width(graph) == _networkx_width(graph)


@SLOW
@given(graph=graph_strategy)
def test_reversed_graph_is_an_involution(graph):
    double = graph.reversed().reversed()
    assert sorted(double.edges()) == sorted(graph.edges())
    assert double.entry_tasks() == graph.entry_tasks()


@SLOW
@given(depth=st.integers(0, 5), seed=st.integers(0, 1000))
def test_series_parallel_has_two_terminals(depth, seed):
    graph = random_series_parallel(depth=depth, seed=seed)
    assert len(graph.entry_tasks()) == 1
    assert len(graph.exit_tasks()) == 1
    graph.validate()


# --------------------------------------------------------------------- schedules
workload_strategy = st.builds(
    lambda n, seed: (random_layered_dag(num_tasks=n, seed=seed), seed),
    n=st.integers(8, 25),
    seed=st.integers(0, 5_000),
)


def _generous_period(graph, platform, epsilon):
    compute = (epsilon + 1) * graph.total_work * platform.mean_inverse_speed / platform.num_processors
    comm = (
        (epsilon + 1)
        * sum(v for _, _, v in graph.edges())
        * platform.mean_inverse_bandwidth
        / platform.num_processors
    )
    return 4.0 * max(compute, comm, 1e-6) + max(t.work for t in graph.tasks) / platform.min_speed


@SLOW
@given(data=workload_strategy, epsilon=st.integers(0, 2))
def test_ltf_schedules_are_structurally_valid(data, epsilon):
    graph, seed = data
    platform = heterogeneous_platform(8, seed=seed)
    period = _generous_period(graph, platform, epsilon)
    try:
        schedule = ltf_schedule(graph, platform, period=period, epsilon=epsilon)
    except SchedulingError:
        return  # infeasible instances are allowed to fail explicitly
    validate_schedule(schedule)
    assert schedule.is_complete()
    # every task has exactly epsilon + 1 replicas on distinct processors
    for task in graph.task_names:
        procs = schedule.processors_of_task(task)
        assert len(procs) == epsilon + 1
        assert len(set(procs)) == epsilon + 1
    # the stage recursion never decreases along recorded communications
    stages = compute_stages(schedule)
    for event in schedule.comm_events:
        assert stages[event.destination] >= stages[event.source]


@SLOW
@given(data=workload_strategy)
def test_rltf_latency_never_worse_than_bound_formula(data):
    graph, seed = data
    platform = heterogeneous_platform(8, seed=seed)
    period = _generous_period(graph, platform, 1)
    try:
        schedule = rltf_schedule(graph, platform, period=period, epsilon=1)
    except SchedulingError:
        return
    s = num_stages(schedule)
    assert latency_upper_bound(schedule) == pytest.approx((2 * s - 1) * period)
    assert 1 <= s <= graph.num_tasks


@SLOW
@given(data=workload_strategy, epsilon=st.integers(1, 2))
def test_strict_resilience_guarantees_survival(data, epsilon):
    """With strict_resilience=True, any c <= epsilon crashes leave every task alive."""
    graph, seed = data
    platform = homogeneous_platform(8)
    period = _generous_period(graph, platform, epsilon)
    try:
        schedule = ltf_schedule(
            graph, platform, period=period, epsilon=epsilon, strict_resilience=True
        )
    except SchedulingError:
        return
    check_resilience(schedule, exhaustive_limit=100, samples=60, seed=seed)


@SLOW
@given(data=workload_strategy)
def test_communication_count_between_chain_and_full_replication(data):
    graph, seed = data
    platform = heterogeneous_platform(8, seed=seed)
    period = _generous_period(graph, platform, 1)
    try:
        schedule = ltf_schedule(graph, platform, period=period, epsilon=1)
    except SchedulingError:
        return
    total = communication_count(schedule, include_local=True)
    assert 2 * graph.num_edges <= total <= 4 * graph.num_edges
