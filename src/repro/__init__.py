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

import importlib
import sys


def _lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """The PEP 562 ``__getattr__`` and ``__dir__`` of a package facade.

    *exports* maps each submodule to the names the package re-exports from
    it; a name is imported on first access and then kept in the package's
    namespace.  Any other public name is tried as a subpackage, so that
    ``import repro; repro.core`` works without an explicit import.
    """
    origin = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        module = origin.get(name)
        if module is not None:
            namespace[name] = value = getattr(importlib.import_module(module), name)
            return value
        if not name.startswith("_"):
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__


# Every export loads on first access: a process imports only the layers it
# uses (``repro-streaming --version`` loads no scheduler, ``config --emit``
# no figure stack).
_EXPORTS = {
    "repro.exceptions": (
        "ReproError", "GraphError", "CycleError", "PlatformError", "ScheduleError",
        "SchedulingError", "ThroughputInfeasibleError", "ReplicationError",
        "ValidationError",
    ),
    "repro.graph": (
        "Task", "TaskGraph", "random_layered_dag", "random_series_parallel",
        "random_paper_workload", "chain_graph", "fork_join_graph", "figure1_graph",
        "figure2_graph", "video_encoding_pipeline", "dsp_filter_bank",
        "map_reduce_graph", "sensor_fusion_graph",
    ),
    "repro.platform": (
        "Processor", "Platform", "homogeneous_platform", "heterogeneous_platform",
        "paper_platform", "figure1_platform", "figure2_platform",
    ),
    "repro.schedule": (
        "Replica", "Schedule", "compute_stages", "num_stages", "latency_upper_bound",
        "normalized_latency", "throughput", "communication_count",
        "fault_tolerance_overhead", "collect_metrics", "validate_schedule",
        "check_resilience",
    ),
    "repro.core": (
        "ltf_schedule", "rltf_schedule", "fault_free_schedule", "fault_free_latency",
        "maximize_throughput", "maximize_resilience",
    ),
    "repro.failures": (
        "CrashScenario", "sample_crash_scenarios", "crash_latency", "evaluate_crashes",
        "expected_crash_latency", "FaultEvent", "FaultTrace", "sample_fault_trace",
    ),
    "repro.runtime": (
        "OnlineRuntime", "RuntimeTrace", "summarize_traces",
    ),
    "repro.baselines": (
        "heft_schedule", "etf_schedule", "preclustering_schedule", "expert_schedule",
        "tda_schedule", "wmsh_schedule", "minimal_period_schedule",
    ),
    "repro.scenario": (
        "ScenarioSpec", "SuiteSpec", "WorkloadSpec", "SchedulerSpec", "FaultSpec",
        "RuntimeSpec",
    ),
    "repro.api": (
        "Session", "Result", "ScheduleResult", "SimulateResult", "OnlineResult",
        "MonteCarloResult",
    ),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)


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

__all__ = ["__version__", *(name for names in _EXPORTS.values() for name in names)]
