"""Schedule metrics: latency, throughput, utilizations, overheads.

The three criteria of the paper are measured here:

* **latency** — ``L = (2S − 1)·Δ`` where ``S`` is the number of pipeline
  stages (:func:`latency_upper_bound`), optionally normalized by a
  workload-dependent unit (:func:`normalized_latency`);
* **throughput** — the achieved steady-state throughput ``1 / max_u Δ_u``
  (:func:`throughput`), to be compared against the requested one;
* **reliability cost** — the fault-tolerance overhead
  ``(L_algo − L_FF) / L_FF`` against the fault-free reference schedule
  (:func:`fault_tolerance_overhead`), and the number of extra communications
  induced by replication (:func:`communication_count`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.schedule.schedule import Schedule
from repro.schedule.stages import compute_stages, num_stages
from repro.utils.checks import check_positive

__all__ = [
    "latency_upper_bound",
    "normalized_latency",
    "throughput",
    "processor_utilization",
    "communication_count",
    "replication_comm_ratio",
    "fault_tolerance_overhead",
    "ScheduleMetrics",
    "collect_metrics",
]


def latency_upper_bound(schedule: Schedule) -> float:
    """Pipelined latency upper bound ``L = (2S − 1)·Δ`` of a complete schedule."""
    s = num_stages(schedule)
    return (2 * s - 1) * schedule.period


def normalized_latency(schedule: Schedule, unit: float) -> float:
    """Latency divided by a workload-dependent *unit* (e.g. the mean task time).

    The experimental section of the paper reports a "normalized latency" so
    that graphs of different sizes can be averaged; the module docstring of
    :mod:`repro.experiments.config` gives the unit chosen by this reproduction.
    """
    check_positive(unit, "unit")
    return latency_upper_bound(schedule) / unit


def throughput(schedule: Schedule) -> float:
    """Achieved steady-state throughput ``1 / max_u Δ_u``."""
    return schedule.achieved_throughput


def processor_utilization(schedule: Schedule) -> dict[str, float]:
    """Utilization ``U_{P_u} = T·Σ_u`` of every processor."""
    return {
        name: state.compute_load / schedule.period
        for name, state in schedule.processor_states.items()
    }


def communication_count(schedule: Schedule, include_local: bool = False) -> int:
    """Number of communications induced by the mapping.

    By default only *remote* communications are counted (local transfers cost
    nothing); this is the quantity the one-to-one mapping procedure aims to
    keep close to ``e(ε+1)`` instead of ``e(ε+1)²``.
    """
    events = schedule.comm_events
    if include_local:
        return len(events)
    return sum(1 for c in events if not c.is_local)


def replication_comm_ratio(schedule: Schedule) -> float:
    """Total number of replica-to-replica transfers divided by the number of
    graph edges — between ``ε+1`` (perfect one-to-one chains) and ``(ε+1)²``."""
    e = schedule.graph.num_edges
    if e == 0:
        return 0.0
    return len(schedule.comm_events) / e


def fault_tolerance_overhead(latency: float, fault_free_latency: float) -> float:
    """Relative overhead ``(L_algo − L_FF)/L_FF`` in percent."""
    check_positive(fault_free_latency, "fault_free_latency")
    return 100.0 * (latency - fault_free_latency) / fault_free_latency


@dataclass(frozen=True)
class ScheduleMetrics:
    """A flat summary of a schedule, convenient for campaign result tables."""

    algorithm: str
    num_tasks: int
    num_edges: int
    epsilon: int
    period: float
    stages: int
    latency: float
    achieved_throughput: float
    remote_communications: int
    total_communications: int
    used_processors: int
    max_compute_load: float
    max_comm_in_load: float
    max_comm_out_load: float

    def as_dict(self) -> dict[str, float]:
        """Dictionary view (keeps dataclass immutability for the caller)."""
        return {
            "algorithm": self.algorithm,
            "num_tasks": self.num_tasks,
            "num_edges": self.num_edges,
            "epsilon": self.epsilon,
            "period": self.period,
            "stages": self.stages,
            "latency": self.latency,
            "achieved_throughput": self.achieved_throughput,
            "remote_communications": self.remote_communications,
            "total_communications": self.total_communications,
            "used_processors": self.used_processors,
            "max_compute_load": self.max_compute_load,
            "max_comm_in_load": self.max_comm_in_load,
            "max_comm_out_load": self.max_comm_out_load,
        }


def collect_metrics(schedule: Schedule) -> ScheduleMetrics:
    """Compute a :class:`ScheduleMetrics` summary for a complete schedule."""
    stages = compute_stages(schedule)
    s = max(stages.values()) if stages else 0
    states = schedule.processor_states.values()
    return ScheduleMetrics(
        algorithm=schedule.algorithm,
        num_tasks=schedule.graph.num_tasks,
        num_edges=schedule.graph.num_edges,
        epsilon=schedule.epsilon,
        period=schedule.period,
        stages=s,
        latency=(2 * s - 1) * schedule.period if s else 0.0,
        achieved_throughput=schedule.achieved_throughput,
        remote_communications=communication_count(schedule),
        total_communications=communication_count(schedule, include_local=True),
        used_processors=len(schedule.used_processors()),
        max_compute_load=max(st.compute_load for st in states),
        max_comm_in_load=max(st.comm_in_load for st in states),
        max_comm_out_load=max(st.comm_out_load for st in states),
    )
