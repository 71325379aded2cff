"""Frozen kernel/runtime corpus: every admission style and driver, bit for bit.

Each case below drives the one-port kernel — directly, or through the online
runtime, the one execution driver — and records what the run produced:

* ``out`` — a sha256 over every drained ``(dataset, completion)`` pair in
  drain order, every ``completion_of`` answer, and (for runtime cases) the
  whole trace fingerprint.  Floats enter through ``repr``, so a change that
  moves one completion instant by one ulp, or reorders two same-instant
  completions, fails the case;
* ``events`` — the per-kind kernel event counts a
  :class:`~repro.obs.probe.MetricsProbe` saw;
* ``live_peak`` / ``evicted`` — the kernel occupancy gauges, sampled at the
  drains; ``peak`` — the kernels' own high-water mark of live data sets.

The covered ground: ``admit_batch`` and one-at-a-time ``admit`` (as the
online runtime drives it, and window by window on sequence numbers reserved
up front) under the eviction watermark, mid-run crashes, checkpoint restore
through ``admit_restored``; the offline simulation (``simulator/*``: one
crash-free engine run with a crash set down from the start, no rebuild and
an unbounded queue) against ``admit_batch``; the online runtime with shed
and queue admission and ``rebuild_on_repair``; correlated, elastic-spare and
trace-replay fault worlds; a dyadic (integer durations) workload
streamed online, quiet and with one crash; and same-instant tie order
(``ties/*``: the Figure 2 workflow on 6 and 8 identical processors, LTF and
R-LTF at ε=1 and Δ=32/64, releases every Δ/2), where an event pushed at the
instant it falls due must pop after every earlier event due then.

The goldens in ``tests/golden/kernel_trace_fingerprints.json`` were generated
on the kernel *before* its per-dataset record layout, so they pin that
rewrite as behaviour-preserving; they also outlived the kernel's retaining
memory model and the simulator's one-shot batch drive (the
``kernel/*/vectorized`` cases and the simulator's ``E`` entries were recorded
through admission methods that have since been folded into
``admit_batch``), and the deletion of the separate offline stream driver
(the ``simulator/*`` ``U`` entries, recorded through it, reproduce through
the engine run).  The ``kernel/*/window`` cases were recorded through a
windowed batch admission since replaced by per-data-set ``admit`` on
reserved sequence numbers: their outputs and gauges are the frozen ones, only
their ``events`` counts moved (one merged ``release-all`` per data set
instead of one ``release`` per entry replica).  The ``simulator/*`` and
``dyadic/*`` cases once also hashed the diagnostics of a closed-form
steady-state skip; their ``out`` was regenerated without them, and the
``dyadic/*`` ``events`` now count every event of the stream.  Regenerate the
goldens only for an intended change of kernel behaviour::

    PYTHONPATH=src python tests/unit/test_kernel_corpus.py --write
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from repro.core.ltf import ltf_schedule
from repro.core.rltf import rltf_schedule
from repro.experiments.config import ExperimentConfig, workload_period
from repro.failures.scenarios import FaultEvent, FaultTrace
from repro.graph.examples import figure2_graph
from repro.graph.generator import random_paper_workload
from repro.obs.probe import MetricsProbe
from repro.platform.builders import figure2_platform, homogeneous_platform
from repro.runtime.admission import QueueAdmissionPolicy
from repro.runtime.engine import OnlineRuntime
from repro.scenario import ScenarioSpec
from repro.scenario.run import run_scenario_online
from repro.service.models import trace_fingerprint
from repro.sim.kernel import PipelineKernel

ROOT = Path(__file__).resolve().parents[2]
GOLDEN_PATH = ROOT / "tests" / "golden" / "kernel_trace_fingerprints.json"

#: data sets per kernel-level case: several pipeline depths, a fraction of a
#: second per case.
N = 240


def _paper_schedule(build, epsilon: int, seed: int, granularity: float):
    workload = random_paper_workload(
        granularity, seed=seed, num_tasks=20, num_processors=8
    )
    period = workload_period(workload, epsilon, ExperimentConfig(period_slack=1.5))
    return build(workload.graph, workload.platform, period=period, epsilon=epsilon)


def schedules() -> dict:
    """Name -> schedule: two full-mantissa paper workloads and one dyadic
    (integer durations) example."""
    return {
        "rltf-eps1": _paper_schedule(rltf_schedule, 1, 0, 0.5),
        "ltf-eps2": _paper_schedule(ltf_schedule, 2, 1, 1.5),
        "fig2-eps1": ltf_schedule(
            figure2_graph(), figure2_platform(10), throughput=0.05, epsilon=1,
            strict_resilience=True,
        ),
    }


class _Record:
    """Accumulates one case's output hash and kernel counts."""

    def __init__(self) -> None:
        self.digest = hashlib.sha256()
        self.probe = MetricsProbe()
        self.peak = 0

    def add(self, tag: str, value) -> None:
        self.digest.update(f"{tag} {value!r}\n".encode())

    def drained(self, pairs) -> None:
        for dataset, t in pairs:
            self.add("D", (dataset, t))

    def gauges(self, kernel) -> None:
        self.probe.on_gauges(kernel.now, kernel.live_datasets, kernel.evicted_datasets)
        self.peak = max(self.peak, kernel.peak_live_datasets)

    def result(self) -> dict:
        registry = self.probe.registry
        return {
            "out": self.digest.hexdigest(),
            "events": {
                name.removeprefix("kernel.events."): count
                for name, count in sorted(registry.counters.items())
                if name.startswith("kernel.events.") and count
            },
            "live_peak": registry.gauge("kernel.live_datasets.peak"),
            "evicted": registry.gauge("kernel.evicted_datasets"),
            "peak": self.peak,
        }


def _victim(schedule) -> str:
    """A used processor whose crash the schedule tolerates (ε >= 1)."""
    return sorted(schedule.used_processors())[0]


def _finish(rec: _Record, kernel, n: int) -> dict:
    rec.drained(kernel.run_to_completion())
    rec.gauges(kernel)
    for j in range(n):
        rec.add("C", kernel.completion_of(j))
    rec.add("P", kernel.pending_datasets())
    return rec.result()


def _batch(schedule) -> dict:
    """admit_batch on jittered releases; a crash a third of the way in."""
    rec = _Record()
    period = schedule.period
    releases = [j * period + (j % 3) * 0.25 * period for j in range(N)]
    kernel = PipelineKernel(schedule, probe=rec.probe)
    kernel.admit_batch(releases)
    rec.drained(kernel.run_until(N * period / 3))
    kernel.crash(_victim(schedule))
    return _finish(rec, kernel, N)


def _vectorized(schedule) -> dict:
    """admit_batch on a uniform stream with an offset, drained in four
    slices."""
    rec = _Record()
    period = schedule.period
    kernel = PipelineKernel(schedule, probe=rec.probe)
    kernel.admit_batch([k * period + 0.5 * period for k in range(N)])
    for k in range(1, 4):
        rec.drained(kernel.run_until(k * N * period / 4))
        rec.gauges(kernel)
    return _finish(rec, kernel, N)


def _window(schedule) -> dict:
    """A windowed drive: admit one window of the uniform stream per data set
    (on sequence numbers reserved for the whole stream), run just below the
    next window's first release; a crash inside the second window."""
    rec = _Record()
    period = schedule.period
    window = 64
    kernel = PipelineKernel(schedule, probe=rec.probe)
    kernel.reserve(N)
    j = 0
    while j < N:
        stop = min(j + window, N)
        for k in range(j, stop):
            kernel.admit(k, k * period)
        j = stop
        rec.drained(kernel.run_until(math.nextafter(j * period, -math.inf)))
        rec.gauges(kernel)
        if j == 2 * window:
            kernel.crash(_victim(schedule))
    return _finish(rec, kernel, N)


def _one_at_a_time(schedule) -> dict:
    """admit per data set, a crash, then a checkpoint restore of the pending
    data sets into a fresh kernel (the online runtime's rebuild path)."""
    rec = _Record()
    period = schedule.period
    kernel = PipelineKernel(schedule, probe=rec.probe)
    half = N // 2
    for j in range(half):
        kernel.admit(j, j * period)
        rec.drained(kernel.run_until(j * period))
    kernel.crash(_victim(schedule))
    now = half * period
    rec.drained(kernel.run_until(now))
    rec.gauges(kernel)
    pending = kernel.pending_datasets()
    checkpoints = [(j, kernel.completed_tasks(j)) for j in pending]
    for j, tasks in checkpoints:
        rec.add("K", (j, sorted(tasks)))
    restored = PipelineKernel(schedule, probe=rec.probe)
    for j, tasks in checkpoints:
        restored.admit_restored(j, now, tasks)
    for j in range(half, N):
        restored.admit(j, j * period)
        rec.drained(restored.run_until(j * period))
    rec.drained(restored.run_to_completion())
    rec.gauges(restored)
    for j in range(N):
        rec.add("C", restored.completion_of(j))
    return rec.result()


def _simulator(schedule) -> dict:
    """The offline simulation (one engine run: the crash set down from the
    start, no rebuild, an unbounded queue) and the kernel's admit_batch on
    explicit releases under the same crash set."""
    rec = _Record()
    period = schedule.period
    n = 800
    for failed in ((), (_victim(schedule),)):
        trace = OnlineRuntime(
            schedule,
            FaultTrace((), horizon=n * period, initially_down=failed),
            rebuild_beyond_epsilon=False,
            admission=QueueAdmissionPolicy(capacity=None),
        ).run(n)
        rec.add("U", (tuple(r.completion for r in trace.records), trace.latencies))
        releases = [j * period + (j % 2) * 0.5 * period for j in range(n)]
        kernel = PipelineKernel(schedule, failed)
        kernel.admit_batch(releases)
        done = dict(kernel.run_to_completion())
        completions = tuple(done[j] for j in range(n))
        latencies = tuple(t - r for t, r in zip(completions, releases))
        rec.add("E", (completions, latencies))
    return rec.result()


KERNEL_DRIVES = {
    "batch": _batch,
    "vectorized": _vectorized,
    "window": _window,
    "admit-restore": _one_at_a_time,
}


def _online(spec: dict, seed: int) -> dict:
    rec = _Record()
    trace = run_scenario_online(ScenarioSpec.from_dict(spec), seed, probe=rec.probe)
    rec.add("T", trace_fingerprint(trace))
    return rec.result()


def _spec(**sections) -> dict:
    base = {
        "name": "kernel-corpus",
        "workload": {"num_tasks": 20, "num_processors": 8, "granularity": 0.8},
        "scheduler": {"name": "rltf", "epsilon": 1},
        "faults": {"mttf_periods": 80.0, "mttr_periods": 15.0},
        "runtime": {"num_datasets": 300},
    }
    for section, fields in sections.items():
        base[section] = {**base[section], **fields}
    return base


ONLINE_CASES = {
    "shed-ckpt": _spec(),
    "queue-ckpt": _spec(runtime={"admission": "queue", "queue_capacity": 16}),
    "rebuild-on-repair": _spec(runtime={"rebuild_on_repair": True}),
    "failstop-eps2": _spec(
        scheduler={"epsilon": 2}, faults={"mttf_periods": 60.0, "mttr_periods": None}
    ),
    "correlated": _spec(faults={"group_size": 2}),
    "elastic-spare": _spec(
        faults={"spares": 1, "join_periods": 30.0, "preempt_periods": 200.0}
    ),
    "trace-replay": {
        "name": "kernel-corpus-replay",
        "workload": {"num_tasks": 20, "num_processors": 6, "granularity": 1.0},
        "scheduler": {"name": "rltf", "epsilon": 1},
        "faults": {"trace_file": str(ROOT / "examples" / "cluster_trace.csv")},
        "runtime": {"num_datasets": 300, "rebuild_on_repair": True},
    },
}


def _dyadic_online(schedule, crashes: list[float], n: int) -> dict:
    """OnlineRuntime on the dyadic schedule, with a crash and repair of one
    processor at each of *crashes*."""
    rec = _Record()
    period = schedule.period
    victim = _victim(schedule)
    events = []
    for t in crashes:
        events.append(FaultEvent(t, victim, "crash"))
        events.append(FaultEvent(t + 5 * period, victim, "repair"))
    faults = FaultTrace(tuple(events), horizon=n * period)
    trace = OnlineRuntime(
        schedule, faults, rebuild_beyond_epsilon=False, probe=rec.probe
    ).run(n)
    rec.add("T", trace_fingerprint(trace))
    return rec.result()


def tie_schedules() -> dict:
    """Name -> schedule: the Figure 2 workflow on identical processors and
    links, where co-located replicas exchange data at no cost, so
    zero-duration transfers fall due at the instant they are sent.
    ``strict_throughput=False`` keeps R-LTF on 6 processors at Δ=32, which
    the strict build rejects; every other build is the strict one."""
    built = {}
    for name, build in (("ltf", ltf_schedule), ("rltf", rltf_schedule)):
        for m in (6, 8):
            for period in (32.0, 64.0):
                built[f"{name}-m{m}-d{period:g}"] = build(
                    figure2_graph(), homogeneous_platform(m), period=period,
                    epsilon=1, strict_throughput=False,
                )
    return built


def _ties(schedule) -> dict:
    """admit_batch releases every half period: same-instant events pushed
    while the clock stands at their instant must pop after every earlier
    event due at that instant, in push order."""
    rec = _Record()
    n = 60
    kernel = PipelineKernel(schedule, probe=rec.probe)
    kernel.admit_batch([k * schedule.period / 2 for k in range(n)])
    return _finish(rec, kernel, n)


def corpus() -> dict[str, dict]:
    """Case name -> recorded outputs for the whole frozen corpus."""
    produced: dict[str, dict] = {}
    built = schedules()
    for sname, schedule in built.items():
        for drive, run in KERNEL_DRIVES.items():
            produced[f"kernel/{sname}/{drive}/evicting"] = run(schedule)
        produced[f"simulator/{sname}"] = _simulator(schedule)
    for name, spec in ONLINE_CASES.items():
        for seed in (0, 1):
            produced[f"online/{name}/seed{seed}"] = _online(spec, seed)
    dyadic = built["fig2-eps1"]
    period = dyadic.period
    produced["dyadic/quiet"] = _dyadic_online(dyadic, [], 2000)
    produced["dyadic/sparse"] = _dyadic_online(dyadic, [700.5 * period], 2000)
    for name, schedule in tie_schedules().items():
        produced[f"ties/{name}"] = _ties(schedule)
    return produced


def test_kernel_corpus_matches_frozen_fingerprints():
    goldens = json.loads(GOLDEN_PATH.read_text())
    produced = json.loads(json.dumps(corpus()))  # JSON-normalized, like the file
    assert sorted(produced) == sorted(goldens)
    changed = sorted(k for k in goldens if produced[k] != goldens[k])
    assert not changed, f"{len(changed)} kernel cases changed, e.g. {changed[:5]}"


def test_queue_admission_equals_shed_without_faults():
    """Fault-free, every release is on time: queue admission admits each data
    set at its release, as shed does, so the two traces are one."""
    n = 800
    for name, schedule in schedules().items():
        faults = FaultTrace((), horizon=n * schedule.period)
        shed = OnlineRuntime(schedule, faults).run(n)
        queue = OnlineRuntime(schedule, faults, admission="queue").run(n)
        assert replace(queue, admission="shed") == shed, name


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_kernel_corpus.py --write")
    GOLDEN_PATH.write_text(json.dumps(corpus(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
