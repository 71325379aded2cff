"""Failure model and crash evaluation.

* :mod:`repro.failures.scenarios` — generation of crash scenarios (which
  processors fail), matching the experimental protocol of the paper
  ("processors that fail during the schedule process are chosen uniformly");
* :mod:`repro.failures.evaluation` — the *real* latency of a schedule under a
  given crash pattern (effective pipeline stages over the surviving replicas).

The module also provides the *timed* failure model consumed by the online
runtime (:mod:`repro.runtime`): :class:`~repro.failures.scenarios.FaultTrace`
and :func:`~repro.failures.scenarios.sample_fault_trace`, the fault-process
classes behind it (:mod:`repro.failures.processes` — correlated crash groups,
load-dependent hazards, elastic joins/preemptions), and availability-log
ingestion (:mod:`repro.failures.trace_io`).

Streaming execution itself has one executor, the online runtime.  An offline
simulation under a fixed crash set — the check of the analytic model
``L = (2S−1)·Δ`` — is one engine run: a
:class:`~repro.failures.scenarios.FaultTrace` with no events whose
``initially_down`` is the crash set, ``rebuild_beyond_epsilon=False`` and an
unbounded ``queue`` admission, so that every data set the crash set lets
through completes.
"""

from repro.failures.scenarios import (
    CrashScenario,
    sample_crash_scenarios,
    all_crash_scenarios,
    FaultEvent,
    FaultTrace,
    sample_fault_trace,
    FAULT_DISTRIBUTIONS,
    FAULT_EVENT_KINDS,
)
from repro.failures.processes import (
    FaultProcess,
    RenewalFaultProcess,
    ElasticFaultProcess,
    TraceReplayProcess,
    resolve_groups,
)
from repro.failures.trace_io import load_fault_trace, dump_fault_trace
from repro.failures.evaluation import (
    CrashEvaluation,
    crash_latency,
    evaluate_crashes,
    expected_crash_latency,
)

__all__ = [
    "CrashScenario",
    "sample_crash_scenarios",
    "all_crash_scenarios",
    "FaultEvent",
    "FaultTrace",
    "sample_fault_trace",
    "FAULT_DISTRIBUTIONS",
    "FAULT_EVENT_KINDS",
    "FaultProcess",
    "RenewalFaultProcess",
    "ElasticFaultProcess",
    "TraceReplayProcess",
    "resolve_groups",
    "load_fault_trace",
    "dump_fault_trace",
    "CrashEvaluation",
    "crash_latency",
    "evaluate_crashes",
    "expected_crash_latency",
]
