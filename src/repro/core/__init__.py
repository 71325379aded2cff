"""The paper's contribution: LTF and R-LTF tri-criteria schedulers.

* :func:`~repro.core.ltf.ltf_schedule` — the LTF (Latency, Throughput,
  Failures) iso-level list-scheduling heuristic of Section 4.1;
* :func:`~repro.core.rltf.rltf_schedule` — the Reverse LTF heuristic of
  Section 4.2 (bottom-up traversal, Rules 1 and 2);
* :func:`~repro.core.fault_free.fault_free_schedule` — the fault-free
  reference schedule used as the overhead baseline in the experiments;
* :mod:`repro.core.bicriteria` — the "symmetric" problems listed as future
  work in the conclusion (maximise throughput or the number of tolerated
  failures under constraints on the other criteria).

The shared greedy machinery (iso-level chunks, condition (1), the one-to-one
mapping procedure and kill-set tracking) lives in :mod:`repro.core.engine`,
the one placement engine: :func:`~repro.core.engine.forced_schedule` runs it
on a fixed replica-to-processor assignment for R-LTF's forward pass, the
mapping-only baselines and the ``remap`` reschedule policy.
"""

from repro.core.engine import (
    MappingEngine,
    SchedulerOptions,
    forced_schedule,
    resolve_period,
    condition_one,
)
from repro.core.ltf import ltf_schedule, LTFPolicy
from repro.core.rltf import rltf_schedule, RLTFPolicy
from repro.core.fault_free import fault_free_schedule, fault_free_latency
from repro.core.bicriteria import (
    maximize_throughput,
    maximize_resilience,
    BicriteriaResult,
)

__all__ = [
    "MappingEngine",
    "SchedulerOptions",
    "resolve_period",
    "condition_one",
    "ltf_schedule",
    "LTFPolicy",
    "rltf_schedule",
    "RLTFPolicy",
    "forced_schedule",
    "fault_free_schedule",
    "fault_free_latency",
    "maximize_throughput",
    "maximize_resilience",
    "BicriteriaResult",
]
