#!/usr/bin/env python3
"""Domain example: fault-tolerant scheduling of a video-encoding pipeline.

A software video encoder is the prototypical streaming application of the
paper's introduction: frames flow continuously, the service must sustain a
target frame rate (throughput), viewers care about end-to-end delay (latency),
and a transcoding farm must keep running when a node dies (reliability).

The script maps the encoder of :func:`repro.graph.examples.video_encoding_pipeline`
onto a small heterogeneous cluster, sweeps the fault-tolerance degree ε, and
shows how latency and communication overhead grow with the protection level —
and the latency actually observed on a stream of frames, obtained with one
crash-free run of the online runtime.

Run with::

    python examples/video_pipeline.py
"""

from __future__ import annotations

from repro import (
    FaultTrace,
    OnlineRuntime,
    collect_metrics,
    expected_crash_latency,
    heterogeneous_platform,
    rltf_schedule,
    video_encoding_pipeline,
)
from repro.exceptions import SchedulingError
from repro.runtime.admission import QueueAdmissionPolicy
from repro.utils.ascii import format_table


def main() -> None:
    graph = video_encoding_pipeline(frames_per_block=6)
    platform = heterogeneous_platform(12, speed_range=(0.6, 1.2), delay_range=(0.4, 0.8), seed=3)

    # Frame-rate requirement: the period must absorb the per-frame work spread
    # over the cluster, with some slack for communications.
    m = platform.num_processors
    base = graph.total_work * platform.mean_inverse_speed / m
    comm = graph.total_volume * platform.mean_inverse_bandwidth / m

    print(f"workflow: {graph}")
    print(f"cluster:  {platform}")
    print()

    rows = []
    for epsilon in (0, 1, 2, 3):
        period = 2.5 * (epsilon + 1) * max(base, comm)
        try:
            schedule = rltf_schedule(graph, platform, period=period, epsilon=epsilon)
        except SchedulingError as exc:
            rows.append([epsilon, f"{period:.0f}", "infeasible", "-", "-", "-", str(exc)[:40]])
            continue
        metrics = collect_metrics(schedule)
        crash = expected_crash_latency(
            schedule, crashes=min(epsilon, 1), samples=5, seed=1, on_invalid="upper_bound"
        )
        # 8 frames, no fault, no rebuild, and a queue that sheds no frame
        frames = 8
        trace = OnlineRuntime(
            schedule,
            FaultTrace((), horizon=frames * schedule.period),
            rebuild_beyond_epsilon=False,
            admission=QueueAdmissionPolicy(capacity=None),
        ).run(frames)
        rows.append(
            [
                epsilon,
                f"{period:.0f}",
                f"{metrics.latency:.0f}",
                f"{crash:.0f}",
                f"{trace.latencies[-1]:.0f}",
                metrics.remote_communications,
                f"{metrics.used_processors} processors",
            ]
        )

    print(
        format_table(
            [
                "epsilon",
                "period",
                "latency bound",
                "latency (1 crash)",
                "simulated latency",
                "remote comms",
                "note",
            ],
            rows,
            float_fmt="{:.0f}",
        )
    )
    print()
    print(
        "Replication protects the encoder against node failures at the price of a\n"
        "longer pipeline and more traffic; the simulated latency confirms the\n"
        "(2S-1)·Δ model used by the scheduler."
    )


if __name__ == "__main__":
    main()
