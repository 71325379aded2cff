"""Properties of forced assignments, checked through every caller.

R-LTF's forward pass, the mapping-only baselines and the ``remap``
reschedule policy all hand a replica-to-processor assignment to
:func:`repro.core.engine.forced_schedule`.  A spy records each assignment
and the schedule built from it, on random default-generator workloads
(ε ≤ 2, period slack in [1, 2]), and checks that:

* every replica sits on its assigned processor;
* a replica fed once per predecessor draws no source from a processor
  assigned to a sibling replica;
* a schedule without relaxed placements passes ``validate_schedule``.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import repro.baselines.clustering
import repro.baselines.expert
import repro.baselines.tda
import repro.baselines.wmsh
import repro.core.rltf
import repro.runtime.policies
from repro.core.rltf import rltf_schedule
from repro.exceptions import SchedulingError
from repro.experiments.config import ExperimentConfig, workload_period
from repro.graph.generator import random_paper_workload
from repro.runtime.policies import RemapReschedulePolicy
from repro.schedule.validation import validate_schedule

SLOW = settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@contextmanager
def _spy(module):
    """Record ``(assignment, schedule)`` of each ``forced_schedule`` call
    *module* makes."""
    real = module.forced_schedule
    calls = []

    def spy(graph, platform, period, assignment, algorithm, options=None):
        schedule = real(graph, platform, period, assignment, algorithm, options)
        calls.append((assignment, schedule))
        return schedule

    with mock.patch.object(module, "forced_schedule", spy):
        yield calls


def _check_forced(assignment, schedule) -> None:
    for task, procs in assignment.items():
        assert schedule.processors_of_task(task) == tuple(procs), task
    for replica in schedule.all_replicas():
        sources = schedule.sources_of(replica)
        if not sources or any(len(reps) != 1 for reps in sources.values()):
            continue
        own = schedule.processor_of(replica)
        siblings = set(assignment[replica.task]) - {own}
        for (source,) in sources.values():
            assert schedule.processor_of(source) not in siblings, (replica, source)
    if schedule.stats["relaxed_placements"] == 0:
        validate_schedule(schedule)


def _rltf(workload, period, epsilon):
    return rltf_schedule(workload.graph, workload.platform, period=period, epsilon=epsilon)


def _baseline(name):
    module = getattr(repro.baselines, name)
    build = getattr(module, f"{'preclustering' if name == 'clustering' else name}_schedule")

    def run(workload, period, epsilon):
        return build(workload.graph, workload.platform, period=period)

    return module, run


def _remap(workload, period, epsilon):
    """Remap an R-LTF schedule after the crash of its first used processor."""
    previous = _rltf(workload, period, epsilon)
    dead = previous.used_processors()[0]
    survivors = workload.platform.subset(
        p for p in workload.platform.processor_names if p != dead
    )
    return RemapReschedulePolicy().reschedule(
        workload.graph, survivors, period, epsilon, previous
    )


CALLERS = {
    "rltf": (repro.core.rltf, _rltf),
    "preclustering": _baseline("clustering"),
    "expert": _baseline("expert"),
    "tda": _baseline("tda"),
    "wmsh": _baseline("wmsh"),
    "remap": (repro.runtime.policies, _remap),
}

workloads = st.fixed_dictionaries(
    {
        "granularity": st.sampled_from([0.5, 1.0, 2.0]),
        "seed": st.integers(0, 10_000),
        "num_tasks": st.integers(8, 25),
        "num_processors": st.integers(4, 10),
    }
)


@pytest.mark.parametrize("caller", sorted(CALLERS))
@SLOW
@given(params=workloads, epsilon=st.integers(0, 2), slack=st.floats(1.0, 2.0))
def test_forced_callers_keep_the_assignment(caller, params, epsilon, slack):
    try:
        workload = random_paper_workload(
            params["granularity"],
            seed=params["seed"],
            num_tasks=params["num_tasks"],
            num_processors=params["num_processors"],
        )
    except ValueError:  # a graph without a communication edge
        assume(False)
    period = workload_period(workload, epsilon, ExperimentConfig(period_slack=slack))
    module, run = CALLERS[caller]
    with _spy(module) as calls:
        try:
            run(workload, period, epsilon)
        except SchedulingError:  # R-LTF's own reverse pass found no mapping
            assume(False)
    assert calls
    for assignment, schedule in calls:
        _check_forced(assignment, schedule)
