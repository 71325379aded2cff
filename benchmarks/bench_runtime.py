"""Online-runtime benchmark: the quiet and saturated streams, the scheduler
builds and the steady kernel.

A script with no pytest-benchmark dependency, used by CI::

    python benchmarks/bench_runtime.py --smoke --output BENCH_runtime.json

It times the workloads below (fewer repetitions with ``--smoke``) and writes
a JSON report so the perf trajectory of the runtime is recorded per commit.
End-to-end campaign throughput and per-point transport are perfbench's
(``trials_per_s``, ``experiments.payload_bytes``; see ``perfbench/``).  The
rows:

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
import sys
import time
from pathlib import Path

from repro.core.ltf import ltf_schedule
from repro.core.rltf import rltf_schedule
from repro.experiments.config import ExperimentConfig, workload_period
from repro.failures.scenarios import FaultTrace
from repro.graph.generator import random_paper_workload
from repro.runtime.engine import OnlineRuntime
from repro.sim.kernel import PipelineKernel
from repro.utils.ascii import format_table


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
        lambda: OnlineRuntime(long_schedule, long_empty).run(long_n),
        lambda: OnlineRuntime(long_schedule, long_empty, probe=MetricsProbe()).run(long_n),
        repeat=2 if smoke else 3,
    )
    overhead_raw = (
        (probe_seconds - long_seconds) / long_seconds if long_seconds else 0.0
    )

    # --- scheduler rows: best of 3 even in smoke mode, since a 30-task build
    # takes milliseconds and a single timing would not hold a 30% band
    scheduler_builds = _scheduler_builds(3 if smoke else 5)

    # --- steady kernel: best of 3 in smoke mode too, for the 30% band
    kernel_steady = _kernel_steady(4_000 if smoke else 20_000, 3 if smoke else 5)

    return {
        "smoke": smoke,
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
    rows = [
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


if __name__ == "__main__":
    sys.exit(main())
