"""Shared discrete-event simulation kernel.

This package is the single event loop under both execution front ends of the
reproduction:

* the **offline simulator** (:mod:`repro.failures.simulator`) admits the
  uniform ``j·Δ`` stream one window at a time under a fixed crash scenario
  (per data set, on a ``releases_first`` kernel, so the pop order is a
  one-shot admission's) and drains the completions at every window
  boundary — this is the sanity check of the analytic latency model
  ``L = (2S − 1)·Δ``;
* the **online runtime** (:mod:`repro.runtime.engine`) drives the kernel
  *incrementally*: data sets are admitted as the stream releases them, fault
  events interleave with compute/transfer events in a single loop
  (:meth:`PipelineKernel.crash` cancels the work of a processor mid-run), and
  :meth:`PipelineKernel.completed_tasks` / :meth:`PipelineKernel.admit_restored`
  implement checkpoint/restart across online rebuilds.

Layering (bottom to top)::

    repro.sim            event queue + one-port pipeline kernel
      ├── repro.failures.simulator   offline driver (StreamingSimulator)
      └── repro.runtime.engine       incremental driver (OnlineRuntime)
            └── repro.experiments / repro.cli   campaigns, sweeps, reports

Both drivers simulate every event of every data set: there is one
execution path per stream, whatever its durations or fault regime.

The kernel only ever *reads* the :class:`~repro.schedule.schedule.Schedule`
(mapping, communication topology, per-replica execution times via
:meth:`~repro.schedule.schedule.Schedule.execution_time_of`); all mutable
simulation state lives here.
"""

from repro.sim.events import EventQueue
from repro.sim.kernel import PipelineKernel

__all__ = [
    "EventQueue",
    "PipelineKernel",
]
