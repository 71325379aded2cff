"""Shared fixtures for the test-suite, plus the hypothesis CI profile."""

from __future__ import annotations

import os

import pytest

try:  # hypothesis is a test-only dependency; unit tests run without it
    from hypothesis import settings

    # CI runs derandomized (reproducible failures, no flaky shrinks) with a
    # deeper example budget than the fast local default.  Activate with
    # HYPOTHESIS_PROFILE=ci; per-test @settings(...) decorators still apply
    # their own max_examples on top.
    settings.register_profile("ci", derandomize=True, max_examples=200, deadline=None)
    settings.register_profile("dev", deadline=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
except ImportError:  # pragma: no cover
    pass

from repro.graph.dag import TaskGraph
from repro.graph.examples import figure1_graph, figure2_graph
from repro.graph.generator import chain_graph, fork_join_graph, random_layered_dag, random_paper_workload
from repro.platform.builders import (
    figure1_platform,
    figure2_platform,
    heterogeneous_platform,
    homogeneous_platform,
)
from repro.failures.scenarios import FaultTrace
from repro.runtime.admission import QueueAdmissionPolicy
from repro.runtime.engine import OnlineRuntime
from repro.sim.kernel import PipelineKernel


# ------------------------------------------------------------ stream oracles
def offline_run(schedule, num_datasets: int, failed=()):
    """The offline simulation of *schedule*: one engine run of the uniform
    ``j·Δ`` stream with *failed* down from the start, no rebuild and an
    unbounded admission queue (so no data set is shed)."""
    faults = FaultTrace((), horizon=num_datasets * schedule.period, initially_down=failed)
    return OnlineRuntime(
        schedule,
        faults,
        rebuild_beyond_epsilon=False,
        admission=QueueAdmissionPolicy(capacity=None),
    ).run(num_datasets)


def batch_completions(schedule, num_datasets: int, failed=()) -> tuple:
    """The one-shot reference the stream drivers are checked against:
    ``admit_batch`` of the uniform ``j·Δ`` stream under the crash set
    *failed*, drained by ``run_to_completion``; completion instants in data
    set order (``None`` for a data set that never completes)."""
    kernel = PipelineKernel(schedule, failed)
    kernel.admit_batch([j * schedule.period for j in range(num_datasets)])
    done = dict(kernel.run_to_completion())
    return tuple(done.get(j) for j in range(num_datasets))


def completions(trace) -> tuple:
    """Completion instant of every data set of a runtime trace, in order."""
    return tuple(r.completion for r in trace.records)


@pytest.fixture
def diamond() -> TaskGraph:
    """The Figure 1 diamond (4 tasks, all work 15, edge volume 2)."""
    return figure1_graph()


@pytest.fixture
def fig2() -> TaskGraph:
    """The Figure 2 workflow (7 tasks)."""
    return figure2_graph()


@pytest.fixture
def fig1_platform():
    return figure1_platform()


@pytest.fixture
def fig2_platform():
    return figure2_platform(10)


@pytest.fixture
def homo4():
    """Four identical unit-speed processors."""
    return homogeneous_platform(4)


@pytest.fixture
def hetero8():
    """Eight random heterogeneous processors (fixed seed)."""
    return heterogeneous_platform(8, seed=7)


@pytest.fixture
def chain6() -> TaskGraph:
    return chain_graph(6, work=10.0, volume=4.0)


@pytest.fixture
def forkjoin() -> TaskGraph:
    return fork_join_graph(branches=3, branch_length=2, work=10.0, volume=4.0)


@pytest.fixture
def random_dag() -> TaskGraph:
    return random_layered_dag(num_tasks=30, seed=11)


@pytest.fixture
def small_workload():
    """A small paper workload (30 tasks, 8 processors) for scheduler tests."""
    return random_paper_workload(1.0, seed=5, num_tasks=30, num_processors=8)
