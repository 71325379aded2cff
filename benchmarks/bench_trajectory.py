"""Maintain the cross-commit benchmark trajectory and gate on regressions.

CI runs ``bench_runtime.py --smoke --output BENCH_runtime.json`` on every
push, then calls this script to append the fresh report to the accumulated
trajectory (``BENCH_trajectory.json``, restored from the previous run's
artifact/cache) and to compare the headline throughput —
``long_stream_datasets_per_sec`` — every scheduler row (LTF/R-LTF builds
per second, one per workload tag) and the steady-kernel row (data sets per
second through the bare kernel, one per workload tag) against the previous
point::

    python benchmarks/bench_trajectory.py BENCH_runtime.json BENCH_trajectory.json

Exit code 1 (after appending, so the regressed point is still recorded and
re-uploaded) when any gated rate falls more than ``--max-regression``
(default 30%) below the previous comparable point.  A missing or unreadable
trajectory starts a fresh one — first runs and expired caches must not fail
the build.
Shared-runner timing is noisy; the 30% band is deliberately wide, catching
algorithmic regressions, not scheduler jitter.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HEADLINE = "long_stream_datasets_per_sec"
#: report/point key of the scheduler rows: ``{workload tag: builds per second}``
SCHEDULER = "scheduler_builds"
#: report/point key of the steady-kernel row: ``{workload tag: data sets per
#: second}``.  Its events per second move with it: a tag's event count is
#: fixed, since the kernel's traces are bit-identical across changes.
KERNEL = "kernel_steady"
#: gated row sets: report/point key -> the rate each report row is gated on
ROW_RATES = {SCHEDULER: "builds_per_sec", KERNEL: "datasets_per_sec"}


def load_trajectory(path: Path) -> list[dict]:
    """The recorded points, oldest first ([] for missing/corrupt files).

    An empty result is not an error: the first run of a fresh checkout (or
    an expired CI cache) seeds the baseline instead of gating — the caller
    logs that the gate was skipped.
    """
    try:
        points = json.loads(path.read_text())
    except OSError:
        print(f"trajectory: no file at {path}; starting a fresh trajectory")
        return []
    except ValueError:
        print(f"trajectory: {path} is not valid JSON; starting a fresh trajectory")
        return []
    if not isinstance(points, list):
        print(f"trajectory: {path} is not a JSON list; starting a fresh trajectory")
        return []
    return points


def append_point(trajectory: list[dict], report: dict) -> dict:
    """The trajectory point of *report*: headline metrics + provenance."""
    point = {
        "commit": os.environ.get("GITHUB_SHA", "local"),
        "run": os.environ.get("GITHUB_RUN_ID", ""),
        "smoke": bool(report.get("smoke")),
        # workload tag of the headline stream: redefining the benchmark
        # workload makes older points incomparable, so the gate skips them
        # and this run seeds the new baseline instead of gating against a
        # different workload's numbers
        "workload": report.get("long_stream", {}).get("workload"),
        HEADLINE: report.get(HEADLINE),
        "fast_forward_speedup": report.get("fast_forward_speedup"),
    }
    for key, rate in ROW_RATES.items():
        point[key] = {tag: row.get(rate) for tag, row in report.get(key, {}).items()}
    trajectory.append(point)
    return point


def check_regression(
    trajectory: list[dict], max_regression: float
) -> tuple[bool, str]:
    """Compare the newest point's headline against the previous one.

    Only comparable points gate: the previous point must carry the headline
    metric, the same ``smoke`` flag (a smoke run is a different workload
    than a full run, not a regression) and the same ``workload`` tag (a
    redefined headline workload seeds a fresh baseline).
    """
    current = trajectory[-1]
    value = current.get(HEADLINE)
    if value is None:
        return True, f"no {HEADLINE} in the current report; gating skipped"
    baselines = (
        (previous.get(HEADLINE), previous)
        for previous in reversed(trajectory[:-1])
        if previous.get("workload") == current.get("workload")
    )
    return _gate(HEADLINE, value, current, baselines, max_regression)


def check_rows(
    trajectory: list[dict], key: str, max_regression: float
) -> list[tuple[bool, str]]:
    """Gate every row of the newest point's *key* rows on its own.

    A row compares with the newest previous point of the same ``smoke``
    flag that has a row of the same workload tag; a tag seen for the first
    time seeds its baseline.
    """
    current = trajectory[-1]
    return [
        _gate(
            f"{key}[{tag}]",
            value,
            current,
            (
                (previous.get(key, {}).get(tag), previous)
                for previous in reversed(trajectory[:-1])
            ),
            max_regression,
        )
        for tag, value in sorted(current.get(key, {}).items())
        if value is not None
    ]


def _gate(name, value, current, baselines, max_regression) -> tuple[bool, str]:
    """Compare *value* with the first usable ``(baseline, point)`` of
    *baselines* (newest first) whose point has the current ``smoke`` flag."""
    for baseline, previous in baselines:
        if baseline and previous.get("smoke") == current.get("smoke"):
            floor = baseline * (1.0 - max_regression)
            verdict = (
                f"{name}: {value:,.2f} vs previous {baseline:,.2f} "
                f"(floor {floor:,.2f}, commit {previous.get('commit', '?')[:12]})"
            )
            return value >= floor, verdict
    return True, (
        f"{name}: no comparable previous point; gating skipped — "
        f"recorded {value:,.2f} as the baseline"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", help="fresh BENCH_runtime.json")
    parser.add_argument("trajectory", help="accumulated BENCH_trajectory.json")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.30,
        help="tolerated fractional drop of every gated rate, in [0, 1) (default 0.30)",
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.max_regression < 1.0:  # also rejects nan
        parser.error(f"--max-regression must be in [0, 1), got {args.max_regression!r}")
    report = json.loads(Path(args.report).read_text())
    trajectory_path = Path(args.trajectory)
    trajectory = load_trajectory(trajectory_path)
    if not trajectory:
        print("trajectory: empty — this run seeds the baseline; gating skipped")
    point = append_point(trajectory, report)
    trajectory_path.write_text(json.dumps(trajectory, indent=2) + "\n")
    gates = [check_regression(trajectory, args.max_regression)]
    for key in ROW_RATES:
        gates += check_rows(trajectory, key, args.max_regression)
    print(f"trajectory: {len(trajectory)} points ({trajectory_path})")
    for ok, verdict in gates:
        print(("OK  " if ok else "FAIL ") + verdict)
    if not all(ok for ok, _ in gates):
        print(
            f"::error::a gated rate regressed more than "
            f"{args.max_regression:.0%} against the previous point"
        )
        return 1
    value = point[HEADLINE]
    print(
        f"recorded {point['commit'][:12]}: "
        + ("(no headline metric)" if value is None else f"{value:,.0f}")
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
