"""Start-up cost: a process imports only the modules it executes.

Every check here runs in a fresh interpreter, where ``sys.modules`` shows
what a command really loaded:

* networkx is optional: ``import repro``, the top-level exports and
  ``config --emit`` work with it blocked, and only the networkx export
  methods ask for it;
* the ``repro``, ``repro.experiments``, ``repro.utils`` and ``repro.obs``
  facades load lazily yet bind every name they always exported to the same
  object, and ``dir()`` and star imports still see them;
* ``import repro`` and ``--version`` stay off the figure stack, the service,
  the Gantt renderer and networkx; ``cache ls`` stays off numpy, and the
  runtime trace loads only the metrics of ``repro.obs``;
* a forked campaign worker or scenario-job child finds everything its run
  executes already imported in the process it was forked from, and a
  default campaign's set-up leaves the related-work baselines unloaded.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.experiments
import repro.obs
import repro.utils

SRC = Path(repro.__file__).resolve().parents[1]

#: blocks networkx the way an environment without it does: importing it
#: raises ImportError.
NO_NETWORKX = "import sys\nsys.modules['networkx'] = None\n"

#: prints the loaded module names as JSON on stderr when the process exits.
REPORT_MODULES = (
    "import atexit, json, sys\n"
    "atexit.register(lambda: print(json.dumps(sorted(sys.modules)), file=sys.stderr))\n"
)

#: runs ``python -m repro`` with the arguments given after the code.
RUN_CLI = "import runpy\nrunpy.run_module('repro', run_name='__main__', alter_sys=True)\n"

#: the module each facade name comes from, frozen as the eager facades
#: imported them, in ``__all__`` order.
REPRO_EXPORTS = {
    "repro.exceptions": [
        "ReproError", "GraphError", "CycleError", "PlatformError", "ScheduleError",
        "SchedulingError", "ThroughputInfeasibleError", "ReplicationError",
        "ValidationError",
    ],
    "repro.graph": [
        "Task", "TaskGraph", "random_layered_dag", "random_series_parallel",
        "random_paper_workload", "chain_graph", "fork_join_graph", "figure1_graph",
        "figure2_graph", "video_encoding_pipeline", "dsp_filter_bank",
        "map_reduce_graph", "sensor_fusion_graph",
    ],
    "repro.platform": [
        "Processor", "Platform", "homogeneous_platform", "heterogeneous_platform",
        "paper_platform", "figure1_platform", "figure2_platform",
    ],
    "repro.schedule": [
        "Replica", "Schedule", "compute_stages", "num_stages", "latency_upper_bound",
        "normalized_latency", "throughput", "communication_count",
        "fault_tolerance_overhead", "collect_metrics", "validate_schedule",
        "check_resilience",
    ],
    "repro.core": [
        "ltf_schedule", "rltf_schedule", "fault_free_schedule", "fault_free_latency",
        "maximize_throughput", "maximize_resilience",
    ],
    "repro.failures": [
        "CrashScenario", "sample_crash_scenarios", "crash_latency", "evaluate_crashes",
        "expected_crash_latency", "FaultEvent", "FaultTrace", "sample_fault_trace",
    ],
    "repro.runtime": ["OnlineRuntime", "RuntimeTrace", "summarize_traces"],
    "repro.baselines": [
        "heft_schedule", "etf_schedule", "preclustering_schedule", "expert_schedule",
        "tda_schedule", "wmsh_schedule", "minimal_period_schedule",
    ],
    "repro.scenario": [
        "ScenarioSpec", "SuiteSpec", "WorkloadSpec", "SchedulerSpec", "FaultSpec",
        "RuntimeSpec",
    ],
    "repro.api": [
        "Session", "Result", "ScheduleResult", "SimulateResult", "OnlineResult",
        "MonteCarloResult",
    ],
}
EXPERIMENTS_EXPORTS = {
    "repro.experiments.config": [
        "ExperimentConfig", "bench_config", "paper_config", "workload_period",
    ],
    "repro.experiments.campaign": ["CampaignResult", "PointResult", "run_campaign"],
    "repro.experiments.figures": [
        "FigureSeries", "figure3a", "figure3b", "figure3c", "figure4a", "figure4b",
        "figure4c", "ablation_rules", "baseline_comparison", "scaling_study",
    ],
    "repro.experiments.tables": ["figure1_scenarios", "figure2_example"],
    "repro.experiments.reporting": ["render_series", "render_suite"],
    "repro.experiments.parallel": ["RuntimeCampaignResult", "run_runtime_campaign"],
    "repro.experiments.sweep": ["SuitePointResult", "SweepResult", "run_suite"],
}
UTILS_EXPORTS = {
    "repro.utils.rng": ["ensure_rng", "spawn_rngs"],
    "repro.utils.intervals": ["Interval", "Timeline", "earliest_common_slot"],
    "repro.utils.checks": [
        "check_positive", "check_non_negative", "check_probability", "check_type",
    ],
    "repro.utils.ascii": ["format_table", "ascii_plot"],
}
OBS_EXPORTS = {
    "repro.obs.metrics": ["LATENCY_BUCKET_EDGES", "LatencyHistogram", "MetricsRegistry"],
    "repro.obs.probe": ["MetricsProbe", "Probe"],
    "repro.obs.gantt": [
        "STATUS_COLORS", "render_gantt_svg", "render_gantt_html", "write_gantt",
    ],
    "repro.obs.sample": ["sample_trace"],
}

#: modules a start-up that runs no figure, no server and no Gantt export
#: must not load.
HEAVY = ("networkx", "repro.experiments.figures", "repro.service", "repro.obs.gantt")


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run *code* in a fresh interpreter that imports repro from this tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("REPRO_CHAOS", None)
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done


# ------------------------------------------------------------------ networkx
def test_repro_imports_without_networkx():
    done = _python(NO_NETWORKX + """
import repro
from repro import ScenarioSpec, figure2_graph, TaskGraph
from repro.graph import graph_width
graph = figure2_graph()
print(graph_width(graph), ScenarioSpec().name)
for call in (graph.to_networkx, lambda: TaskGraph.from_networkx(None)):
    try:
        call()
    except ImportError as exc:
        assert "networkx" in str(exc) and "optional" in str(exc), exc
    else:
        raise AssertionError("the networkx export ran without networkx")
""")
    assert done.stdout.split()[0] == "3"


def test_config_emit_without_networkx():
    done = _python(NO_NETWORKX + RUN_CLI, "config", "--emit")
    assert json.loads(done.stdout)["name"] == repro.ScenarioSpec().name


# ------------------------------------------------------------ public surface
@pytest.mark.parametrize(
    "package, exports",
    [
        (repro, REPRO_EXPORTS),
        (repro.experiments, EXPERIMENTS_EXPORTS),
        (repro.utils, UTILS_EXPORTS),
        (repro.obs, OBS_EXPORTS),
    ],
    ids=["repro", "repro.experiments", "repro.utils", "repro.obs"],
)
def test_facade_binds_every_name_to_the_same_object(package, exports):
    names = [name for group in exports.values() for name in group]
    if package is repro:
        names.insert(0, "__version__")
    assert package.__all__ == names
    for module, group in exports.items():
        source = importlib.import_module(module)
        for name in group:
            assert getattr(package, name) is getattr(source, name), name
    assert set(names) <= set(dir(package))
    star: dict = {}
    exec(f"from {package.__name__} import *", star)
    assert {name: star[name] for name in names} == {
        name: getattr(package, name) for name in names
    }


def test_facade_resolves_subpackages_and_rejects_unknown_names():
    done = _python("""
import repro, repro.experiments
assert repro.core.ltf_schedule is repro.ltf_schedule
assert repro.experiments.figures.figure3a is repro.experiments.figure3a
for package in (repro, repro.experiments):
    for name in ("no_such_name", "_private"):
        assert not hasattr(package, name), name
print("ok")
""")
    assert done.stdout.strip() == "ok"


# ------------------------------------------------------------- import budget
@pytest.mark.parametrize(
    "code, args",
    [("import repro\n", ()), (RUN_CLI, ("--version",))],
    ids=["import repro", "--version"],
)
def test_start_up_stays_off_the_heavy_modules(code, args):
    done = _python(REPORT_MODULES + code, *args)
    loaded = set(json.loads(done.stderr.strip().splitlines()[-1]))
    assert not loaded & set(HEAVY)


def test_cache_ls_loads_no_numpy(tmp_path):
    """``cache ls`` formats a table: the utils facade must not pull numpy in
    through the random-number helpers."""
    done = _python(REPORT_MODULES + RUN_CLI, "cache", "ls", "--cache-dir", str(tmp_path))
    loaded = set(json.loads(done.stderr.strip().splitlines()[-1]))
    assert "numpy" not in loaded


def test_runtime_trace_loads_only_the_metrics_of_obs():
    """The trace module needs the latency histogram, not the Gantt renderer
    or the trace sampler behind the rest of the obs facade."""
    done = _python(REPORT_MODULES + "import repro.runtime.trace\n")
    loaded = set(json.loads(done.stderr.strip().splitlines()[-1]))
    assert "repro.obs.metrics" in loaded
    assert not loaded & {"repro.obs.gantt", "repro.obs.sample"}


# --------------------------------------------------------------- warm forks
def test_campaign_worker_finds_its_trial_imported():
    """The imports a campaign makes before its pool forks cover one trial,
    and none of them is a baseline the default spec does not run."""
    done = _python("""
import json, sys
import repro.resilience
from repro import ScenarioSpec
from repro.experiments.parallel import run_runtime_campaign

class AtFork(Exception):
    pass

def at_fork(fn, items, **kwargs):
    before = set(sys.modules)
    fn(items[0])  # _run_trial_unit, as a forked worker runs it
    raise AtFork(sorted(set(sys.modules) - before))

repro.resilience.supervised_map = at_fork
try:
    run_runtime_campaign(ScenarioSpec(), trials=1, seed=0, jobs=2)
except AtFork as fork:
    baselines = [m for m in sys.modules if m.startswith("repro.baselines")]
    print(json.dumps([fork.args[0], baselines]))
""")
    new, baselines = json.loads(done.stdout)
    assert [m for m in new if m.startswith(("repro.", "numpy.random"))] == []
    assert baselines == []


def test_scenario_job_child_finds_its_run_imported():
    """The imports ``serve`` makes before a scenario job forks cover the job."""
    done = _python("""
import json, os, sys
from types import SimpleNamespace
import repro.service
from repro.scenario.spec import ScenarioSpec
from repro.service.jobs import JobStore, scenario_child
from repro.service.models import ScenarioRequest

class AtFork(Exception):
    pass

def fork():
    raise AtFork(set(sys.modules))

request = ScenarioRequest.from_dict(
    {"scenario": json.loads(ScenarioSpec().to_json()), "seed": 0}
)
os.fork = fork
try:
    JobStore._run_scenario(SimpleNamespace(progress_every=100), None, request)
except AtFork as stop:
    at_fork = stop.args[0]
sent = []
scenario_child(SimpleNamespace(send=sent.append), request, 100, os.getppid())
print(json.dumps([sent[-1][0], sorted(set(sys.modules) - at_fork)]))
""")
    status, new = json.loads(done.stdout)
    assert status == "done"
    assert [m for m in new if m.startswith(("repro.", "numpy.random"))] == []
