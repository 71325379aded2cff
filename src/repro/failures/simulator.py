"""Event-driven simulation of the pipelined streaming execution.

The analytic latency model of the paper, ``L = (2S − 1)·Δ``, abstracts the
steady-state behaviour of the pipeline.  This module provides an independent,
event-driven simulator of the actual execution of ``K`` consecutive data sets
under the one-port model, used to sanity-check the analytic model (and to
observe what really happens when processors crash mid-stream).

The event loop lives in :class:`repro.sim.kernel.PipelineKernel` — the same
loop that powers the online runtime (:mod:`repro.runtime.engine`).
:class:`StreamingSimulator` is its *offline driver*: under a fixed crash
scenario it admits the uniform stream one window at a time, one data set at
a time (:meth:`~repro.sim.kernel.PipelineKernel.admit`, the online runtime's
admission too), drains the completions at every window boundary and
packages the per-dataset latencies into a :class:`SimulationResult`:

* every replica executes one *compute operation* per data set, on its assigned
  processor, in FIFO order of the data sets;
* every recorded communication gives one *transfer operation* per data set,
  occupying the sender's out-port and the receiver's in-port simultaneously;
* a replica starts processing data set ``j`` once, for each predecessor task,
  the first input for ``j`` has arrived (active replication: the earliest
  valid copy wins), and data set ``j`` enters the system at time ``j·Δ``;
* crashed processors execute nothing and send nothing.

The simulator reports the latency of each data set (completion of the last
exit task minus release time) and the asymptotic period actually achieved,
which should match ``max_u Δ_u`` of the schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.exceptions import ScheduleError
from repro.failures.scenarios import CrashScenario
from repro.schedule.schedule import Schedule
from repro.schedule.validation import valid_replicas_under_failures
from repro.sim.kernel import PipelineKernel
from repro.utils.checks import check_count
from repro.utils.gcpause import gc_paused

__all__ = ["StreamingSimulator", "SimulationResult", "simulate_stream"]

#: data sets admitted per window: the kernel heap holds at most one window of
#: release events, so its log factor follows the pipeline depth, not the
#: stream length
_WINDOW = 256


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of simulating ``K`` data sets through the pipeline."""

    latencies: tuple[float, ...]
    completion_times: tuple[float, ...]
    period: float

    @property
    def num_datasets(self) -> int:
        """Number of simulated data sets."""
        return len(self.latencies)

    @property
    def steady_state_latency(self) -> float:
        """Latency of the last simulated data set (the pipeline is warmed up)."""
        return self.latencies[-1]

    @property
    def max_latency(self) -> float:
        """Worst latency over the simulated data sets."""
        return max(self.latencies)

    @property
    def achieved_period(self) -> float:
        """Average inter-completion time once the pipeline is full."""
        if len(self.completion_times) < 2:
            return self.period
        gaps = np.diff(self.completion_times)
        tail = gaps[len(gaps) // 2 :]
        return float(np.mean(tail)) if len(tail) else self.period

    @property
    def achieved_throughput(self) -> float:
        """Inverse of :attr:`achieved_period`."""
        p = self.achieved_period
        return float("inf") if p == 0 else 1.0 / p


class StreamingSimulator:
    """Offline driver of the shared pipeline kernel for a complete schedule."""

    def __init__(
        self,
        schedule: Schedule,
        scenario: CrashScenario | Iterable[str] = (),
    ):
        if not schedule.is_complete():
            raise ScheduleError("cannot simulate an incomplete schedule")
        if not isinstance(scenario, CrashScenario):
            scenario = CrashScenario(frozenset(scenario))
        self.schedule = schedule
        self.scenario = scenario
        valid = valid_replicas_under_failures(schedule, scenario.failed)
        for task in schedule.graph.exit_tasks():
            if not valid[task]:
                raise ScheduleError(
                    f"exit task {task!r} has no valid replica under scenario {scenario!r}"
                )

    # ------------------------------------------------------------------ running
    def run(self, num_datasets: int = 10) -> SimulationResult:
        """Simulate *num_datasets* consecutive data sets and return their latencies.

        Data set ``j`` enters the system at ``j·Δ``.  Admission happens one
        window at a time, one data set at a time, on sequence numbers the
        kernel reserved for the whole stream up front
        (:meth:`~repro.sim.kernel.PipelineKernel.reserve`): every release
        pops before all other events at its instant, so the pop order is a
        one-shot admission's of the whole stream, tie for tie.  Each
        window's ``run_until`` stops just *below* the next window's first
        release.
        """
        num_datasets = check_count(num_datasets, "num_datasets")
        period = self.schedule.period
        kernel = PipelineKernel(self.schedule, self.scenario.failed)
        kernel.reserve(num_datasets)
        completions: list[float | None] = [None] * num_datasets
        j = 0
        with gc_paused():
            # millions of acyclic allocations; the cycle detector's scans are
            # pure overhead that grows with the stream (see repro.utils.gcpause)
            while j < num_datasets:
                stop = min(j + _WINDOW, num_datasets)
                for k in range(j, stop):
                    kernel.admit(k, k * period)
                j = stop
                if j >= num_datasets:
                    break
                drained = kernel.run_until(math.nextafter(j * period, -math.inf))
                for d, t in drained:
                    completions[d] = t
            for d, t in kernel.run_to_completion():
                completions[d] = t
        latencies = []
        for dataset, completion in enumerate(completions):
            if completion is None:
                raise ScheduleError(
                    f"data set {dataset} never completed — inconsistent schedule or scenario"
                )
            latencies.append(completion - dataset * period)
        return SimulationResult(
            latencies=tuple(latencies),
            completion_times=tuple(completions),  # type: ignore[arg-type]
            period=period,
        )


def simulate_stream(
    schedule: Schedule,
    num_datasets: int = 10,
    failed_processors: Iterable[str] = (),
) -> SimulationResult:
    """Convenience wrapper: simulate *num_datasets* data sets through *schedule*."""
    return StreamingSimulator(schedule, CrashScenario(frozenset(failed_processors))).run(num_datasets)
