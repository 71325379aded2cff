"""repro — fault-tolerant pipelined scheduling of streaming applications.

Reproduction of **"Optimizing the Latency of Streaming Applications under
Throughput and Reliability Constraints"** (Anne Benoit, Mourad Hakem, Yves
Robert, 2009): the LTF and R-LTF tri-criteria scheduling heuristics, the
heterogeneous one-port platform model they run on, the active-replication
failure model, the related-work baselines, and the full experiment harness
regenerating the paper's figures — plus an online streaming runtime
(:mod:`repro.runtime`) that executes schedules under stochastic processor
failures with live rescheduling, evaluated at Monte-Carlo scale by the
parallel campaign engine (:mod:`repro.experiments.parallel`).

Quickstart
----------
>>> from repro import random_paper_workload, rltf_schedule, latency_upper_bound
>>> workload = random_paper_workload(target_granularity=1.0, seed=42)
>>> schedule = rltf_schedule(
...     workload.graph, workload.platform,
...     period=40 * workload.mean_task_time, epsilon=1,
... )
>>> latency_upper_bound(schedule) > 0
True
"""

from repro.exceptions import (
    ReproError,
    GraphError,
    CycleError,
    PlatformError,
    ScheduleError,
    SchedulingError,
    ThroughputInfeasibleError,
    ReplicationError,
    ValidationError,
)
from repro.graph import (
    Task,
    TaskGraph,
    random_layered_dag,
    random_series_parallel,
    random_paper_workload,
    chain_graph,
    fork_join_graph,
    figure1_graph,
    figure2_graph,
    video_encoding_pipeline,
    dsp_filter_bank,
    map_reduce_graph,
    sensor_fusion_graph,
)
from repro.platform import (
    Processor,
    Platform,
    homogeneous_platform,
    heterogeneous_platform,
    paper_platform,
    figure1_platform,
    figure2_platform,
)
from repro.schedule import (
    Replica,
    Schedule,
    compute_stages,
    num_stages,
    latency_upper_bound,
    normalized_latency,
    throughput,
    communication_count,
    fault_tolerance_overhead,
    collect_metrics,
    validate_schedule,
    check_resilience,
)
from repro.core import (
    ltf_schedule,
    rltf_schedule,
    fault_free_schedule,
    fault_free_latency,
    maximize_throughput,
    maximize_resilience,
)
from repro.failures import (
    CrashScenario,
    sample_crash_scenarios,
    crash_latency,
    evaluate_crashes,
    expected_crash_latency,
    simulate_stream,
    FaultEvent,
    FaultTrace,
    sample_fault_trace,
)
from repro.runtime import (
    OnlineRuntime,
    RuntimeTrace,
    summarize_traces,
)
from repro.baselines import (
    heft_schedule,
    etf_schedule,
    preclustering_schedule,
    expert_schedule,
    tda_schedule,
    wmsh_schedule,
    minimal_period_schedule,
)
from repro.scenario import (
    ScenarioSpec,
    SuiteSpec,
    WorkloadSpec,
    SchedulerSpec,
    FaultSpec,
    RuntimeSpec,
)
from repro.api import (
    Session,
    Result,
    ScheduleResult,
    SimulateResult,
    OnlineResult,
    MonteCarloResult,
)


def _load_version() -> str:
    """Package version — single source of truth is ``pyproject.toml``.

    A source-tree checkout (``PYTHONPATH=src``) answers from the
    ``pyproject.toml`` sitting next to ``src/`` — checked *first*, so a stale
    installed distribution elsewhere in the environment cannot shadow the
    code actually being imported.  An installed package (no adjacent
    pyproject) answers through its own ``importlib.metadata``.
    """
    import re
    from pathlib import Path

    pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
    try:
        match = re.search(
            r'^version\s*=\s*"([^"]+)"', pyproject.read_text(), re.MULTILINE
        )
        if match:
            return match.group(1)
    except OSError:
        pass
    try:
        from importlib.metadata import version

        return version("repro-streaming")
    except Exception:  # PackageNotFoundError, or exotic broken metadata
        return "0.0.0+unknown"


__version__ = _load_version()

__all__ = [
    "__version__",
    # exceptions
    "ReproError",
    "GraphError",
    "CycleError",
    "PlatformError",
    "ScheduleError",
    "SchedulingError",
    "ThroughputInfeasibleError",
    "ReplicationError",
    "ValidationError",
    # graph
    "Task",
    "TaskGraph",
    "random_layered_dag",
    "random_series_parallel",
    "random_paper_workload",
    "chain_graph",
    "fork_join_graph",
    "figure1_graph",
    "figure2_graph",
    "video_encoding_pipeline",
    "dsp_filter_bank",
    "map_reduce_graph",
    "sensor_fusion_graph",
    # platform
    "Processor",
    "Platform",
    "homogeneous_platform",
    "heterogeneous_platform",
    "paper_platform",
    "figure1_platform",
    "figure2_platform",
    # schedule
    "Replica",
    "Schedule",
    "compute_stages",
    "num_stages",
    "latency_upper_bound",
    "normalized_latency",
    "throughput",
    "communication_count",
    "fault_tolerance_overhead",
    "collect_metrics",
    "validate_schedule",
    "check_resilience",
    # core schedulers
    "ltf_schedule",
    "rltf_schedule",
    "fault_free_schedule",
    "fault_free_latency",
    "maximize_throughput",
    "maximize_resilience",
    # failures
    "CrashScenario",
    "sample_crash_scenarios",
    "crash_latency",
    "evaluate_crashes",
    "expected_crash_latency",
    "simulate_stream",
    "FaultEvent",
    "FaultTrace",
    "sample_fault_trace",
    # online runtime
    "OnlineRuntime",
    "RuntimeTrace",
    "summarize_traces",
    # baselines
    "heft_schedule",
    "etf_schedule",
    "preclustering_schedule",
    "expert_schedule",
    "tda_schedule",
    "wmsh_schedule",
    "minimal_period_schedule",
    # declarative scenarios + session facade
    "ScenarioSpec",
    "SuiteSpec",
    "WorkloadSpec",
    "SchedulerSpec",
    "FaultSpec",
    "RuntimeSpec",
    "Session",
    "Result",
    "ScheduleResult",
    "SimulateResult",
    "OnlineResult",
    "MonteCarloResult",
]
