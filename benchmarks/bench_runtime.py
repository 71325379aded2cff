"""Online-runtime benchmark: campaign timing and incremental-vs-flush modes.

Two layers:

* **pytest-benchmark** tests (``pytest benchmarks/bench_runtime.py``) timing a
  seeded Monte-Carlo campaign, the serial-vs-parallel engine, and the two
  execution modes of the engine (``checkpoint=True`` incremental vs
  ``checkpoint=False`` flush-and-restart) on a dense multi-segment stream;
* a **script mode** with no pytest-benchmark dependency, used by CI::

      python benchmarks/bench_runtime.py --smoke --output BENCH_runtime.json

  It times the same workloads (fewer repetitions with ``--smoke``) and writes
  a JSON report so the perf trajectory of the runtime is recorded per commit.
  The headline numbers:

  * ``incremental_speedup_multisegment`` — how much faster the single-loop
    incremental engine executes a stream cut into many fault segments (≥ 5
    fault events) than the flush-and-restart baseline, which pays a pipeline
    setup + cold restart per segment;
  * ``long_stream_datasets_per_sec`` — sustained throughput on a long
    (10⁵ data sets at full scale) zero-fault *quiet* stream: a feasible
    integer-duration schedule where the steady-state fast forward
    (``repro.sim.steady``) engages.  The number CI's trajectory gate
    watches for regressions (see ``benchmarks/bench_trajectory.py``;
    the point carries a workload tag so the gate never compares across
    workload redefinitions);
  * ``fast_forward_speedup`` — the same quiet stream with the fast
    forward on vs off (the off arm is the per-event baseline);
  * ``long_stream_saturated_datasets_per_sec`` — the historical saturated
    random-workload stream, which fails the fast-forward certificate and
    therefore still measures the raw event loop;
  * ``obs_overhead`` — the saturated stream with and without a
    ``repro.obs.MetricsProbe`` attached, measured interleaved (A/B/A/B)
    so runner noise cannot invert the sign: the instrumentation must be
    (near) free when off and cheap when on;
  * ``sweep_transport_bytes`` — pickled campaign payload per sweep point in
    ``reduce="traces"`` vs ``reduce="stats"`` worker mode: the bytes a worker
    ships back through the process pool for one grid point;
  * ``scheduler_builds`` — LTF and R-LTF build time on seeded paper
    workloads of 30, 100 and 300 tasks (ε=2, period slack 2.0, 10
    processors), one row per workload tag.  Each row is gated on its own
    by ``bench_trajectory.py``;
  * ``kernel_steady`` — kernel events/s and data sets/s of the bare
    one-port kernel on a *steady* replicated schedule: the pinned ε=1 R-LTF
    schedule of paper seed 2 (30 tasks, 10 processors; fault-free achieved
    period 1.000Δ), admitted one data set at a time as the online runtime
    does, fault-free.  Gated on its data sets/s by ``bench_trajectory.py``.
"""

from __future__ import annotations

import argparse
import json
import pickle
import sys
import time
from pathlib import Path

from repro.core.ltf import ltf_schedule
from repro.core.rltf import rltf_schedule
from repro.experiments.config import ExperimentConfig, workload_period
from repro.experiments.parallel import run_runtime_campaign
from repro.failures.scenarios import FaultEvent, FaultTrace
from repro.graph.generator import random_paper_workload
from repro.runtime.engine import OnlineRuntime
from repro.scenario import (
    FaultSpec,
    RuntimeSpec,
    ScenarioSpec,
    SchedulerSpec,
    WorkloadSpec,
)
from repro.sim.kernel import PipelineKernel
from repro.utils.ascii import format_table

SPEC = ScenarioSpec(
    name="runtime-trial",
    workload=WorkloadSpec(
        generator="paper", granularity=1.0, num_tasks=25, num_processors=8
    ),
    scheduler=SchedulerSpec(name="rltf", epsilon=1, period_slack=2.0, fallback=True),
    faults=FaultSpec(mttf_periods=80.0),
    runtime=RuntimeSpec(num_datasets=100),
)


def _multisegment_case(num_datasets: int = 200):
    """A schedule plus a dense fault trace (alternating crash/repair of one
    replica-hosting processor): ≥ 5 fault events, every one a segment boundary
    for the flush-and-restart engine, none losing a single data set."""
    workload = random_paper_workload(1.0, seed=4, num_tasks=40, num_processors=10)
    period = workload_period(workload, 2, ExperimentConfig())
    schedule = rltf_schedule(workload.graph, workload.platform, period=period, epsilon=2)
    victim = schedule.used_processors()[0]
    events = []
    t = 1.25
    while t < num_datasets - 2:
        events.append(FaultEvent(t * schedule.period, victim, "crash"))
        events.append(FaultEvent((t + 1.25) * schedule.period, victim, "repair"))
        t += 2.5
    trace = FaultTrace(tuple(events), horizon=num_datasets * schedule.period)
    assert len(trace.events) >= 5
    return schedule, trace, num_datasets


def _time(fn, repeat: int = 3) -> float:
    fn()  # warm-up pass, excluded from the measurement
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _time_interleaved(fn_a, fn_b, repeat: int = 3) -> tuple[float, float]:
    """Best-of-*repeat* for two arms measured A/B/A/B on the same clock.

    Timing the arms back-to-back in separate blocks lets a frequency ramp or
    co-tenant burst land entirely on one arm — which is how a probe-on run
    once measured *faster* than probe-off (a negative overhead fraction in a
    committed report).  Interleaving exposes both arms to the same noise;
    best-of-k then discards the hiccups symmetrically.
    """
    fn_a(), fn_b()  # warm both arms, excluded from the measurement
    best_a = best_b = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn_a()
        best_a = min(best_a, time.perf_counter() - start)
        start = time.perf_counter()
        fn_b()
        best_b = min(best_b, time.perf_counter() - start)
    return best_a, best_b


#: workload tag recorded with the headline metric — bench_trajectory.py only
#: gates against points with the same tag, so redefining the headline
#: workload seeds a fresh baseline instead of faking a 100x "improvement".
QUIET_WORKLOAD = "figure2-quiet-eps1"


def _quiet_stream_case():
    """The headline workload: a *feasible* integer-duration schedule (the
    paper's Figure 2 pipeline, LTF, ε=1) streamed fault-free.  Admission
    keeps up with completion, so a steady state exists and the analytic
    fast forward engages under its exactness certificate — this is the
    workload class the steady-state work is *for*."""
    from repro.core.ltf import ltf_schedule
    from repro.graph.examples import figure2_graph
    from repro.platform.builders import figure2_platform

    return ltf_schedule(
        figure2_graph(), figure2_platform(10), throughput=0.05, epsilon=1,
        strict_resilience=True,
    )


def _long_stream_case():
    """The saturated secondary workload: the 30-task ε=2 random schedule of
    the kernel-perf work.  Its full-mantissa durations fail the fast-forward
    certificate and its admission rate exceeds the achievable period, so it
    exercises the raw event loop — per-event kernel throughput, and the
    probe overhead contract."""
    workload = random_paper_workload(1.0, seed=11, num_tasks=30, num_processors=10)
    period = workload_period(workload, 2, ExperimentConfig())
    return rltf_schedule(workload.graph, workload.platform, period=period, epsilon=2)


#: task counts of the scheduler rows; every row is gated against the same
#: workload tag of the previous run, in smoke and full mode alike.
SCHEDULER_SIZES = (30, 100, 300)


def scheduler_workload_tag(algorithm: str, num_tasks: int) -> str:
    """Workload tag of one scheduler row, e.g. ``rltf-n100-eps2-slack2``."""
    return f"{algorithm}-n{num_tasks}-eps2-slack2"


def _scheduler_builds(repeat: int) -> dict[str, dict]:
    """Best-of-*repeat* LTF and R-LTF build times at every SCHEDULER_SIZES.

    The workload is the paper's (granularity 1.0, seed 3, 10 processors)
    with the campaign period rule at ε=2 and slack 2.0; both heuristics
    schedule it at every size, so a row never times a failure.
    """
    rows = {}
    for num_tasks in SCHEDULER_SIZES:
        workload = random_paper_workload(1.0, seed=3, num_tasks=num_tasks, num_processors=10)
        period = workload_period(workload, 2, ExperimentConfig(period_slack=2.0))
        for algorithm, build in (("ltf", ltf_schedule), ("rltf", rltf_schedule)):
            seconds = _time(
                lambda: build(workload.graph, workload.platform, period=period, epsilon=2),
                repeat,
            )
            rows[scheduler_workload_tag(algorithm, num_tasks)] = {
                "algorithm": algorithm,
                "tasks": num_tasks,
                "seconds": seconds,
                "builds_per_sec": 1.0 / seconds if seconds else 0.0,
            }
    return rows


#: workload tag of the steady-kernel row (see :func:`_kernel_steady`).
KERNEL_WORKLOAD = "rltf-n30-eps1-seed2-steady"


def _steady_schedule():
    """The pinned ε=1 R-LTF schedule of paper seed 2 (30 tasks, 10
    processors, the scenario defaults otherwise): the schedule of the
    ``stream-replicated`` perfbench workload, whose fault-free stream is
    steady — a kernel rate measured on it is not a growing heap's."""
    from repro.scenario import SchedulerSpec, WorkloadSpec
    from repro.scenario.run import build_schedule, build_workload, resolve_period

    workload = build_workload(WorkloadSpec(num_tasks=30, num_processors=10, seed=2), 2)
    scheduler = SchedulerSpec(epsilon=1)
    return build_schedule(workload, scheduler, resolve_period(workload, scheduler))


def _kernel_steady(num_datasets: int, repeat: int) -> dict[str, dict]:
    """Best-of-*repeat* kernel rates on the steady schedule, fault-free.

    Each data set is admitted at ``j·Δ`` and the kernel runs up to that
    instant before the next admission (the online runtime's pattern), with
    eviction on.  The event count comes from one untimed run with a
    :class:`~repro.obs.MetricsProbe`; the timed runs carry no probe.
    """
    from repro.obs import MetricsProbe

    schedule = _steady_schedule()
    period = schedule.period

    def drive(probe=None) -> int:
        kernel = PipelineKernel(schedule, probe=probe)
        completed = 0
        for j in range(num_datasets):
            kernel.admit(j, j * period)
            completed += len(kernel.run_until(j * period))
        return completed + len(kernel.run_to_completion())

    probe = MetricsProbe()
    if drive(probe) != num_datasets:
        raise RuntimeError("the steady kernel row lost data sets on a fault-free stream")
    events = probe.registry.counter("kernel.events.total")
    seconds = _time(drive, repeat)
    return {
        KERNEL_WORKLOAD: {
            "datasets": num_datasets,
            "events": events,
            "seconds": seconds,
            "events_per_sec": events / seconds if seconds else 0.0,
            "datasets_per_sec": num_datasets / seconds if seconds else 0.0,
        }
    }


def _stats_match(a, b) -> bool:
    """Field-wise RuntimeStats equality that treats NaN as matching NaN.

    ``mean_latency`` is NaN when no trial completed anything, and dataclass
    ``==`` would report two such (identical) stats as unequal.
    """
    import dataclasses
    import math

    for spec_field in dataclasses.fields(a):
        x, y = getattr(a, spec_field.name), getattr(b, spec_field.name)
        if isinstance(x, float) and isinstance(y, float):
            if math.isnan(x) and math.isnan(y):
                continue
        if x != y:
            return False
    return True


# --------------------------------------------------------------- script mode
def run_ff_smoke(num_datasets: int = 10_000) -> int:
    """CI gate of the steady-state fast forward: correctness, then speed.

    Runs a quiet certified stream with the fast path on and off, diffs the
    trace fingerprints (they must be **bit-identical** — any divergence is a
    correctness bug, not a perf concern) and then requires the fast path to
    actually be faster.  Returns a process exit code.
    """
    import hashlib

    schedule = _quiet_stream_case()
    trace = FaultTrace((), horizon=num_datasets * schedule.period)

    def fingerprint(runtime_trace) -> str:
        blob = repr(
            (
                runtime_trace.records,
                runtime_trace.events,
                runtime_trace.downtime,
                runtime_trace.num_rebuilds,
            )
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    start = time.perf_counter()
    on = OnlineRuntime(schedule, trace).run(num_datasets)
    on_seconds = time.perf_counter() - start
    start = time.perf_counter()
    off = OnlineRuntime(schedule, trace, fast_forward=False).run(num_datasets)
    off_seconds = time.perf_counter() - start

    on_print, off_print = fingerprint(on), fingerprint(off)
    print(f"fast-forward smoke: {num_datasets:,} quiet data sets")
    print(f"  fast forward on:  {on_seconds:.3f}s  fingerprint {on_print[:16]}")
    print(f"  fast forward off: {off_seconds:.3f}s  fingerprint {off_print[:16]}")
    if on != off or on_print != off_print:
        print("::error::fast-forward traces diverge from the full simulation")
        return 1
    if on_seconds >= off_seconds:
        print("::error::fast forward is not faster than the full simulation")
        return 1
    print(f"  OK: bit-identical, {off_seconds / on_seconds:.1f}x faster")
    return 0


def run_report(smoke: bool = False) -> dict:
    """Time the benchmark workloads and return the JSON-ready report."""
    repeat = 1 if smoke else 3
    trials = 3 if smoke else 5
    datasets = 120 if smoke else 200

    campaign_seconds = _time(
        lambda: run_runtime_campaign(
            SPEC.updated({"runtime.num_datasets": 60 if smoke else 100}),
            trials=trials,
            seed=0,
            jobs=1,
        ),
        repeat,
    )

    schedule, trace, n = _multisegment_case(datasets)
    incr = _time(lambda: OnlineRuntime(schedule, trace, checkpoint=True).run(n), repeat)
    flush = _time(lambda: OnlineRuntime(schedule, trace, checkpoint=False).run(n), repeat)
    empty = FaultTrace((), horizon=n * schedule.period)
    incr0 = _time(lambda: OnlineRuntime(schedule, empty, checkpoint=True).run(n), repeat)
    flush0 = _time(lambda: OnlineRuntime(schedule, empty, checkpoint=False).run(n), repeat)

    # --- headline: quiet certified stream through the steady-state fast path
    quiet_n = 20_000 if smoke else 100_000
    quiet_schedule = _quiet_stream_case()
    quiet_empty = FaultTrace((), horizon=quiet_n * quiet_schedule.period)
    # min of 2 timed passes: this is the metric CI's trajectory gate hard-fails
    # on, so one co-tenant hiccup on a shared runner must not read as a
    # regression (the 30% band covers the rest)
    quiet_on = _time(
        lambda: OnlineRuntime(quiet_schedule, quiet_empty).run(quiet_n),
        repeat=2,
    )
    quiet_off = _time(
        lambda: OnlineRuntime(
            quiet_schedule, quiet_empty, fast_forward=False
        ).run(quiet_n),
        repeat=2,
    )

    # --- saturated secondary: the raw event loop, no fast forward possible,
    # interleaved probe-off/probe-on so both arms see the same runner noise
    # (the probe-off number is the contract: one `is None` check per event)
    from repro.obs import MetricsProbe

    long_n = 20_000 if smoke else 100_000
    long_schedule = _long_stream_case()
    long_empty = FaultTrace((), horizon=long_n * long_schedule.period)
    long_seconds, probe_seconds = _time_interleaved(
        lambda: OnlineRuntime(long_schedule, long_empty, checkpoint=True).run(long_n),
        lambda: OnlineRuntime(
            long_schedule, long_empty, checkpoint=True, probe=MetricsProbe()
        ).run(long_n),
        repeat=2 if smoke else 3,
    )
    overhead_raw = (
        (probe_seconds - long_seconds) / long_seconds if long_seconds else 0.0
    )

    # --- per-point transport of the two worker reductions
    transport_spec = SPEC.updated({"runtime.num_datasets": 200})
    transport_trials = 3 if smoke else 10
    full = run_runtime_campaign(transport_spec, trials=transport_trials, seed=0)
    lean = run_runtime_campaign(
        transport_spec, trials=transport_trials, seed=0, reduce="stats"
    )
    if not _stats_match(lean.stats, full.stats):  # the reduction must be lossless
        raise RuntimeError(
            "reduce='stats' diverged from reduce='traces' statistics — "
            "refusing to report transport numbers for non-equivalent payloads"
        )
    traces_bytes = len(pickle.dumps(full))
    stats_bytes = len(pickle.dumps(lean))

    # --- scheduler rows: best of 3 even in smoke mode, since a 30-task build
    # takes milliseconds and a single timing would not hold a 30% band
    scheduler_builds = _scheduler_builds(3 if smoke else 5)

    # --- steady kernel: best of 3 in smoke mode too, for the 30% band
    kernel_steady = _kernel_steady(4_000 if smoke else 20_000, 3 if smoke else 5)

    return {
        "smoke": smoke,
        "campaign": {"trials": trials, "seconds": campaign_seconds},
        "multisegment": {
            "datasets": n,
            "fault_events": len(trace.events),
            "incremental_seconds": incr,
            "flush_seconds": flush,
        },
        "zero_fault": {
            "datasets": n,
            "incremental_seconds": incr0,
            "flush_seconds": flush0,
        },
        "incremental_speedup_multisegment": flush / incr if incr > 0 else float("inf"),
        "incremental_speedup_zero_fault": flush0 / incr0 if incr0 > 0 else float("inf"),
        "long_stream": {
            "datasets": quiet_n,
            "workload": QUIET_WORKLOAD,
            "seconds": quiet_on,
            "seconds_no_fast_forward": quiet_off,
        },
        "long_stream_datasets_per_sec": quiet_n / quiet_on if quiet_on else 0.0,
        "fast_forward_speedup": quiet_off / quiet_on if quiet_on else float("inf"),
        "long_stream_saturated": {
            "datasets": long_n,
            "seconds": long_seconds,
        },
        "long_stream_saturated_datasets_per_sec": (
            long_n / long_seconds if long_seconds else 0.0
        ),
        "obs_overhead": {
            "datasets": long_n,
            "probe_off_seconds": long_seconds,
            "probe_on_seconds": probe_seconds,
            # clamped for consumers; a negative raw value means the probe
            # cost was below the interleaved-run noise floor, not a speedup
            "overhead_fraction": max(overhead_raw, 0.0),
            "overhead_fraction_raw": overhead_raw,
            "within_noise": overhead_raw < 0.0,
        },
        "sweep_transport_bytes": {
            "datasets": 200,
            "trials": transport_trials,
            "traces": traces_bytes,
            "stats": stats_bytes,
            "reduction_factor": traces_bytes / stats_bytes if stats_bytes else 0.0,
        },
        "scheduler_builds": scheduler_builds,
        "kernel_steady": kernel_steady,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="online-runtime benchmark (script mode)")
    parser.add_argument("--smoke", action="store_true", help="reduced scale for CI")
    parser.add_argument(
        "--output", default=None, help="write the JSON report to this path"
    )
    parser.add_argument(
        "--ff-smoke",
        action="store_true",
        help="fast-forward gate only: bit-identity + speedup on a quiet stream",
    )
    args = parser.parse_args(argv)
    if args.ff_smoke:
        return run_ff_smoke()
    report = run_report(smoke=args.smoke)
    transport = report["sweep_transport_bytes"]
    rows = [
        ["campaign (s)", f"{report['campaign']['seconds']:.3f}"],
        ["multi-segment incremental (s)", f"{report['multisegment']['incremental_seconds']:.3f}"],
        ["multi-segment flush (s)", f"{report['multisegment']['flush_seconds']:.3f}"],
        ["multi-segment speedup", f"{report['incremental_speedup_multisegment']:.2f}x"],
        ["zero-fault incremental (s)", f"{report['zero_fault']['incremental_seconds']:.3f}"],
        ["zero-fault flush (s)", f"{report['zero_fault']['flush_seconds']:.3f}"],
        ["zero-fault speedup", f"{report['incremental_speedup_zero_fault']:.2f}x"],
        [
            f"quiet stream ({report['long_stream']['datasets']:,} data sets, fast forward)",
            f"{report['long_stream_datasets_per_sec']:,.0f} datasets/s",
        ],
        ["fast-forward speedup", f"{report['fast_forward_speedup']:.1f}x"],
        [
            f"saturated stream ({report['long_stream_saturated']['datasets']:,} data sets)",
            f"{report['long_stream_saturated_datasets_per_sec']:,.0f} datasets/s",
        ],
        [
            "obs probe overhead",
            (
                "within noise"
                if report["obs_overhead"]["within_noise"]
                else f"{report['obs_overhead']['overhead_fraction'] * 100:+.1f}%"
            ),
        ],
        ["sweep point payload (traces)", f"{transport['traces']:,} B"],
        ["sweep point payload (stats)", f"{transport['stats']:,} B"],
        ["transport reduction", f"{transport['reduction_factor']:.1f}x"],
    ]
    rows += [
        [f"{row['algorithm']} build, {row['tasks']} tasks (s)", f"{row['seconds']:.3f}"]
        for row in report["scheduler_builds"].values()
    ]
    rows += [
        [
            f"steady kernel {tag} ({row['datasets']:,} data sets)",
            f"{row['events_per_sec']:,.0f} events/s, {row['datasets_per_sec']:,.0f} datasets/s",
        ]
        for tag, row in report["kernel_steady"].items()
    ]
    print(format_table(["benchmark", "value"], rows, title="online runtime benchmark"))
    if args.output:
        Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.output}")
    return 0


# ------------------------------------------------------------ pytest benchmarks
try:
    import pytest
except ImportError:  # pragma: no cover - script mode without pytest
    pytest = None

if pytest is not None:

    @pytest.mark.benchmark(group="runtime")
    def test_runtime_campaign_serial(benchmark):
        result = benchmark(lambda: run_runtime_campaign(SPEC, trials=5, seed=0, jobs=1))
        stats = result.stats
        print()
        print(format_table(["statistic", "value"], stats.as_rows(), title="online runtime, 5 trials"))
        assert stats.trials == 5
        assert 0.0 <= stats.mean_availability <= 1.0

    @pytest.mark.benchmark(group="runtime")
    def test_runtime_campaign_parallel_matches_serial(benchmark):
        serial = run_runtime_campaign(SPEC, trials=4, seed=1, jobs=1)
        fanned = benchmark(lambda: run_runtime_campaign(SPEC, trials=4, seed=1, jobs=4))
        assert fanned.traces == serial.traces

    @pytest.mark.benchmark(group="runtime")
    def test_incremental_beats_flush_on_multisegment_streams(benchmark):
        """Acceptance: the incremental engine is faster once the stream is cut
        into many fault segments (the flush baseline restarts the pipeline and
        rebuilds the kernel at every one of the ≥ 5 fault events)."""
        schedule, trace, n = _multisegment_case(160)
        incremental = benchmark(
            lambda: OnlineRuntime(schedule, trace, checkpoint=True).run(n)
        )
        flush = OnlineRuntime(schedule, trace, checkpoint=False).run(n)
        # same stream outcome, different wall-clock (reported by the script
        # mode / JSON artifact; not asserted here to keep CI timing-agnostic)
        assert incremental.completed_count == flush.completed_count
        assert incremental.lost_by_reason() == flush.lost_by_reason()


if __name__ == "__main__":
    sys.exit(main())
