"""Shared discrete-event simulation kernel.

This package is the event loop under the one execution driver of the
reproduction, the **online runtime** (:mod:`repro.runtime.engine`).  It
drives the kernel *incrementally*: data sets are admitted as the stream
releases them, fault events interleave with compute/transfer events in a
single loop (:meth:`PipelineKernel.crash` cancels the work of a processor
mid-run), and :meth:`PipelineKernel.completed_tasks` /
:meth:`PipelineKernel.admit_restored` implement checkpoint/restart across
online rebuilds.  An offline simulation under a fixed crash set — the sanity
check of the analytic latency model ``L = (2S − 1)·Δ`` — is one run of that
driver: the crash set down from the start, no fault event, no rebuild.

Layering (bottom to top)::

    repro.sim            the one-port pipeline kernel and its event heap
      └── repro.runtime.engine       the one driver (OnlineRuntime)
            └── repro.api / repro.experiments / repro.cli
                                 sessions, campaigns, reports

The driver simulates every event of every data set: there is one execution
path per stream, whatever its durations or fault regime.

The kernel only ever *reads* the :class:`~repro.schedule.schedule.Schedule`
(mapping, communication topology, per-replica execution times via
:meth:`~repro.schedule.schedule.Schedule.execution_time_of`); all mutable
simulation state lives here.
"""

from repro.sim.kernel import PipelineKernel

__all__ = ["PipelineKernel"]
