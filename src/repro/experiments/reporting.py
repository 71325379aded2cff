"""ASCII rendering of experiment results."""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.experiments.figures import FigureSeries
from repro.experiments.tables import ExampleRow
from repro.utils.ascii import ascii_plot, format_table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sweep imports figures)
    from repro.experiments.sweep import SweepResult

__all__ = [
    "render_series",
    "render_example_rows",
    "render_suite",
    "render_latency_report",
]


def render_series(figure: FigureSeries, plot: bool = True) -> str:
    """Render a :class:`FigureSeries` as a table (optionally with an ASCII plot)."""
    headers = [figure.x_label, *figure.series.keys()]
    table = format_table(headers, figure.as_rows(), title=f"{figure.name}: {figure.description}")
    if not plot:
        return table
    return table + "\n\n" + ascii_plot(figure.series)


def _cache_line(result: "SweepResult") -> str:
    """The cache-accounting line of a suite/sweep report."""
    if not result.cache_enabled:
        return (
            f"cache: disabled — executed {result.executed_count} of "
            f"{len(result.points)} points"
        )
    stats = result.cache_stats
    return (
        f"cache: {stats.describe()} — executed {result.executed_count} of "
        f"{len(result.points)} points"
    )


def _resilience_lines(result: "SweepResult") -> list[str]:
    """Recovery/degradation annotations of a suite run (empty when clean).

    An undisturbed, non-resumed run contributes nothing, keeping the
    historical report byte-stable; any retry, checkpoint reuse, failed point
    or drain shows up explicitly — a partial result must never read like a
    complete one.
    """
    lines: list[str] = []
    nonzero = {
        name: count for name, count in result.resilience.items() if count
    }
    if nonzero:
        lines.append(
            "resilience: "
            + ", ".join(f"{count} {name}" for name, count in nonzero.items())
        )
    if result.resumed_trials:
        lines.append(
            f"resumed: {result.resumed_trials} trial(s) served from "
            f"checkpoints, {result.executed_trials} executed"
        )
    for index, note in result.failures:
        lines.append(f"FAILED point #{index}: {note}")
    if result.interrupted:
        lines.append(
            "interrupted: run was drained before completing — re-run with "
            "--resume to execute only the missing trials"
        )
    return lines


def render_suite(
    result: "SweepResult",
    x_axis: str | None = None,
    y_axis: str | None = None,
    plot: bool = True,
) -> str:
    """Render a suite run: header, per-point table, one panel per metric.

    *x_axis* / *y_axis* choose the pivot exactly as in
    :meth:`~repro.experiments.sweep.SweepResult.panel`.  The ASCII plots
    chart each curve against its x *index* (``repro.utils.ascii.ascii_plot``
    never reads the x values), so non-numeric x axes render fine — the
    tables carry the actual x values.
    """
    from repro.experiments.sweep import SWEEP_METRICS

    suite = result.suite
    # the header shows the trials/seed this run actually executed with,
    # which --trials/--seed may have overridden from the suite's defaults
    lines = [
        f"Suite {suite.describe(trials=result.trials, seed=result.seed)}",
        _cache_line(result),
        *_resilience_lines(result),
    ]
    table = format_table(result.row_headers(), result.as_rows(), title="grid points")
    if not suite.axes:
        return "\n\n".join(["\n".join(lines), table])
    panels = [
        render_series(result.panel(x_axis, metric, y_axis=y_axis), plot=plot)
        for metric in SWEEP_METRICS
    ]
    return "\n\n".join(["\n".join(lines), table, *panels])


def render_latency_report(
    result: "SweepResult",
    x_axis: str | None = None,
    y_axis: str | None = None,
    plot: bool = True,
) -> str:
    """Render the ``suite report`` latency-distribution view of a suite run.

    Same pivoting rules as :func:`render_suite`, but the metric columns and
    panels are the :data:`~repro.experiments.sweep.REPORT_METRICS` latency
    distribution (p50/p95/p99/max/mean) instead of the availability-centric
    :data:`~repro.experiments.sweep.SWEEP_METRICS`.  On a warm cache the
    whole report is served without executing a single point — the cache line
    says so explicitly.
    """
    from repro.experiments.sweep import REPORT_METRICS

    suite = result.suite
    lines = [
        f"Latency report — suite "
        f"{suite.describe(trials=result.trials, seed=result.seed)}",
        _cache_line(result),
        *_resilience_lines(result),
        "percentiles are fixed-bucket upper edges (≤ ~8.5% high); max is exact",
    ]
    headers = [*suite.axes, *REPORT_METRICS, "source"]
    rows = []
    for point in result.points:
        stats = point.stats
        metrics = (
            [float("nan")] * len(REPORT_METRICS)
            if point.failed
            else [getattr(stats, attr) for attr in REPORT_METRICS.values()]
        )
        source = "failed" if point.failed else ("cache" if point.cached else "run")
        rows.append(
            [
                *[point.value_of(path) for path in suite.axes],
                *metrics,
                source,
            ]
        )
    table = format_table(headers, rows, title="latency by grid point")
    if not suite.axes:
        return "\n\n".join(["\n".join(lines), table])
    panels = [
        render_series(result.panel(x_axis, metric, y_axis=y_axis), plot=plot)
        for metric in REPORT_METRICS
    ]
    return "\n\n".join(["\n".join(lines), table, *panels])


def render_example_rows(rows: Sequence[ExampleRow], title: str) -> str:
    """Render the Figure 1 / Figure 2 example tables."""
    headers = ["scenario", "latency", "throughput", "stages", "processors", "note"]
    table_rows = []
    for row in rows:
        table_rows.append(
            [
                row.scenario,
                "-" if row.latency is None else f"{row.latency:.1f}",
                "-" if row.throughput is None else f"{row.throughput:.4f}",
                "-" if row.stages is None else str(row.stages),
                "-" if row.processors is None else str(row.processors),
                row.note,
            ]
        )
    return format_table(headers, table_rows, title=title)
