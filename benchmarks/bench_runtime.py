"""Online-runtime benchmark: the quiet and saturated streams, the scheduler
builds and the steady kernel.

A standalone script that CI's bench gate runs::

    python benchmarks/bench_runtime.py --smoke --output BENCH_runtime.json

It times the workloads below (fewer repetitions with ``--smoke``) and writes
a JSON report so the perf trajectory of the runtime is recorded per commit.
End-to-end campaign throughput and per-point transport are perfbench's
(``trials_per_s``, ``experiments.payload_bytes``; see ``perfbench/``).  The
rows:

  * ``long_stream_datasets_per_sec`` — sustained throughput on a long
    (10⁵ data sets at full scale) zero-fault *quiet* stream: a feasible
    schedule whose admission keeps up with completion, run event by event
    through the online runtime.  The number CI's trajectory gate watches
    for regressions (see ``benchmarks/bench_trajectory.py``; the point
    carries a workload tag so the gate never compares across workload
    redefinitions);
  * ``long_stream_saturated_datasets_per_sec`` — the historical saturated
    random-workload stream, whose admission rate exceeds the achievable
    period;
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
#: workload seeds a fresh baseline instead of faking a 100x "improvement"
#: (or, here, an order-of-magnitude "regression": the ``figure2-quiet-eps1``
#: points timed a closed-form skip of the same stream).
QUIET_WORKLOAD = "figure2-quiet-eps1-events"


def _quiet_stream_case():
    """The headline workload: a *feasible* integer-duration schedule (the
    paper's Figure 2 pipeline, LTF, ε=1) streamed fault-free.  Admission
    keeps up with completion, so the stream is steady and every data set
    costs the same kernel events."""
    from repro.core.ltf import ltf_schedule
    from repro.graph.examples import figure2_graph
    from repro.platform.builders import figure2_platform

    return ltf_schedule(
        figure2_graph(), figure2_platform(10), throughput=0.05, epsilon=1,
        strict_resilience=True,
    )


def _long_stream_case():
    """The saturated secondary workload: the 30-task ε=2 random schedule of
    the kernel-perf work.  Its admission rate exceeds the achievable period,
    so the kernel's backlog grows with the stream — per-event kernel
    throughput under load, and the probe overhead contract."""
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
def run_report(smoke: bool = False) -> dict:
    """Time the benchmark workloads and return the JSON-ready report."""
    # --- headline: quiet stream, every data set through the event loop
    quiet_n = 20_000 if smoke else 100_000
    quiet_schedule = _quiet_stream_case()
    quiet_empty = FaultTrace((), horizon=quiet_n * quiet_schedule.period)
    # min of 2 timed passes: this is the metric CI's trajectory gate hard-fails
    # on, so one co-tenant hiccup on a shared runner must not read as a
    # regression (the 30% band covers the rest)
    quiet_seconds = _time(
        lambda: OnlineRuntime(quiet_schedule, quiet_empty).run(quiet_n),
        repeat=2,
    )

    # --- saturated secondary: a growing backlog, interleaved
    # probe-off/probe-on so both arms see the same runner noise (the
    # probe-off number is the contract: one `is None` check per event)
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
            "seconds": quiet_seconds,
        },
        "long_stream_datasets_per_sec": quiet_n / quiet_seconds if quiet_seconds else 0.0,
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
    args = parser.parse_args(argv)
    report = run_report(smoke=args.smoke)
    rows = [
        [
            f"quiet stream ({report['long_stream']['datasets']:,} data sets)",
            f"{report['long_stream_datasets_per_sec']:,.0f} datasets/s",
        ],
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
