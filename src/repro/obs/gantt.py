"""Deterministic Gantt rendering of one :class:`RuntimeTrace`.

One horizontal bar per data set (release → completion, coloured by terminal
status; lost data sets get a short stub at their release instant), overlaid
with the run's control timeline: crash/repair markers and shaded
rebuild/abort downtime spans.  The output is a static SVG string — or a
self-contained HTML page wrapping it with a legend and a summary table — with
**no** randomness, timestamps or environment-dependent formatting, so a
rendering of a seeded run is byte-stable and golden-testable
(``tests/unit/test_obs.py`` freezes one).

Large traces are downsampled row-wise (every *k*-th data set, first and last
always included); the time axis is never truncated, so the fault/rebuild
timeline stays complete even when individual rows are elided.

This module must not import :mod:`repro.runtime` at runtime — the trace
module imports :mod:`repro.obs` back (see :mod:`repro.obs.metrics`); traces
are duck-typed here.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.runtime.trace import RuntimeTrace

__all__ = ["STATUS_COLORS", "render_gantt_svg", "render_gantt_html", "write_gantt"]

#: bar colour of every terminal data-set status (colour-blind-safe palette).
STATUS_COLORS = {
    "completed": "#4c78a8",
    "shed": "#f58518",
    "lost-downtime": "#e45756",
    "lost-abort": "#b279a2",
    "lost-overflow": "#9d755d",
}

_CRASH_COLOR = "#d62728"
_REPAIR_COLOR = "#2ca02c"
_REBUILD_FILL = "#e45756"
_ABORT_FILL = "#888888"

_MARGIN_LEFT = 64
_MARGIN_RIGHT = 16
_MARGIN_TOP = 34
_MARGIN_BOTTOM = 32
_ROW_HEIGHT = 9
_ROW_GAP = 2


def _fmt(value: float) -> str:
    """Fixed two-decimal formatting: deterministic, diff-friendly SVG."""
    return f"{value:.2f}"


def _downtime_spans(trace: "RuntimeTrace") -> list[tuple[str, float, float]]:
    """Reconstruct the shaded downtime intervals from the event log."""
    spans: list[tuple[str, float, float]] = []
    rebuild_start: float | None = None
    for event in trace.events:
        if event.kind in ("crash-rebuild", "repair-rebuild"):
            if rebuild_start is None:
                rebuild_start = event.time
        elif event.kind == "rebuild-complete":
            if rebuild_start is not None:
                spans.append(("rebuild", rebuild_start, event.time))
                rebuild_start = None
        elif event.kind == "abort":
            if rebuild_start is not None:
                spans.append(("rebuild", rebuild_start, event.time))
                rebuild_start = None
            spans.append(("abort", event.time, trace.horizon))
    if rebuild_start is not None:  # still rebuilding when the horizon ended
        spans.append(("rebuild", rebuild_start, trace.horizon))
    return spans


def _sample_rows(num_records: int, max_rows: int) -> list[int]:
    """Evenly spaced record indices (all of them when they fit)."""
    if num_records <= max_rows:
        return list(range(num_records))
    last = num_records - 1
    picked = {round(i * last / (max_rows - 1)) for i in range(max_rows)}
    return sorted(picked)


def render_gantt_svg(
    trace: "RuntimeTrace", width: int = 960, max_rows: int = 60
) -> str:
    """Render *trace* as a static SVG Gantt chart (see module docstring)."""
    rows = _sample_rows(len(trace.records), max_rows)
    plot_w = width - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = len(rows) * (_ROW_HEIGHT + _ROW_GAP)
    height = _MARGIN_TOP + plot_h + _MARGIN_BOTTOM
    t_max = max(
        trace.horizon,
        max((r.completion for r in trace.records if r.completion is not None), default=0.0),
    )
    if t_max <= 0:
        t_max = 1.0

    def x_of(t: float) -> float:
        return _MARGIN_LEFT + (t / t_max) * plot_w

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        'font-family="monospace" font-size="10">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    elided = "" if len(rows) == len(trace.records) else f", {len(rows)} rows shown"
    title = (
        f"online run: {trace.num_datasets} datasets, "
        f"{trace.completed_count} completed, {trace.num_rebuilds} rebuilds, "
        f"policy={trace.policy}, admission={trace.admission}{elided}"
    )
    parts.append(f'<text x="{_MARGIN_LEFT}" y="14" font-size="11">{title}</text>')

    # shaded downtime spans behind everything
    for kind, start, end in _downtime_spans(trace):
        fill = _REBUILD_FILL if kind == "rebuild" else _ABORT_FILL
        parts.append(
            f'<rect x="{_fmt(x_of(start))}" y="{_MARGIN_TOP}" '
            f'width="{_fmt(max(x_of(end) - x_of(start), 0.5))}" height="{plot_h}" '
            f'fill="{fill}" fill-opacity="0.15"><title>{kind} '
            f"{_fmt(start)}-{_fmt(end)}</title></rect>"
        )

    # one bar per (sampled) data set
    for row, index in enumerate(rows):
        record = trace.records[index]
        y = _MARGIN_TOP + row * (_ROW_HEIGHT + _ROW_GAP)
        color = STATUS_COLORS[record.status]
        if record.completion is not None:
            x0, x1 = x_of(record.release), x_of(record.completion)
            bar_w = max(x1 - x0, 0.5)
        else:
            # lost data set: a stub at its release instant
            x0 = x_of(record.release)
            bar_w = max(plot_w * 0.004, 2.0)
        parts.append(
            f'<rect x="{_fmt(x0)}" y="{y}" width="{_fmt(bar_w)}" '
            f'height="{_ROW_HEIGHT}" fill="{color}"><title>dataset {record.index}: '
            f"{record.status}, release={_fmt(record.release)}</title></rect>"
        )
        if row % 10 == 0:
            parts.append(
                f'<text x="4" y="{y + _ROW_HEIGHT - 1}" fill="#444444">'
                f"#{record.index}</text>"
            )

    # crash / repair markers on top
    for event in trace.events:
        if event.kind.startswith("crash"):
            stroke = _CRASH_COLOR
        elif event.kind.startswith("repair"):
            stroke = _REPAIR_COLOR
        else:
            continue
        x = _fmt(x_of(event.time))
        parts.append(
            f'<line x1="{x}" y1="{_MARGIN_TOP}" x2="{x}" '
            f'y2="{_MARGIN_TOP + plot_h}" stroke="{stroke}" stroke-width="1" '
            f'stroke-dasharray="3,2"><title>{event.kind} '
            f"{event.processor or ''} @ {_fmt(event.time)}</title></line>"
        )

    # time axis with five ticks
    axis_y = _MARGIN_TOP + plot_h
    parts.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{axis_y}" x2="{_MARGIN_LEFT + plot_w}" '
        f'y2="{axis_y}" stroke="#000000" stroke-width="1"/>'
    )
    for i in range(5):
        t = t_max * i / 4
        x = _fmt(x_of(t))
        parts.append(
            f'<line x1="{x}" y1="{axis_y}" x2="{x}" y2="{axis_y + 4}" '
            'stroke="#000000" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x}" y="{axis_y + 16}" text-anchor="middle">{_fmt(t)}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_LEFT + plot_w}" y="{axis_y + 28}" '
        'text-anchor="end">time</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)


def render_gantt_html(
    trace: "RuntimeTrace", width: int = 960, max_rows: int = 60
) -> str:
    """Self-contained HTML page: the SVG plus a legend and a summary table."""
    svg = render_gantt_svg(trace, width=width, max_rows=max_rows)
    legend = "".join(
        f'<li><span style="background:{color}">&nbsp;&nbsp;&nbsp;</span> {status}</li>'
        for status, color in STATUS_COLORS.items()
    )
    stats = [
        ("datasets", str(trace.num_datasets)),
        ("completed", str(trace.completed_count)),
        ("loss rate", f"{trace.loss_rate:.4f}"),
        ("rebuilds", str(trace.num_rebuilds)),
        ("downtime", f"{trace.downtime:.2f}"),
        ("availability", f"{trace.availability:.4f}"),
        ("mean latency", f"{trace.mean_latency:.2f}"),
        ("p95 latency", f"{trace.p95_latency:.2f}"),
        ("p99 latency", f"{trace.p99_latency:.2f}"),
        ("max latency", f"{trace.max_latency:.2f}"),
    ]
    rows = "".join(f"<tr><td>{k}</td><td>{v}</td></tr>" for k, v in stats)
    return (
        "<!DOCTYPE html>\n"
        '<html><head><meta charset="utf-8"/>'
        "<title>repro-streaming run</title>"
        "<style>body{font-family:monospace;margin:16px}"
        "table{border-collapse:collapse}td{border:1px solid #ccc;padding:2px 8px}"
        "ul{list-style:none;padding:0}li{display:inline-block;margin-right:12px}"
        "</style></head><body>\n"
        f"<h1>online run ({trace.policy}/{trace.admission})</h1>\n"
        f"<ul>{legend}</ul>\n"
        f"{svg}\n"
        f"<table>{rows}</table>\n"
        "</body></html>\n"
    )


def write_gantt(
    trace: "RuntimeTrace", path: str | Path, max_rows: int = 60
) -> Path:
    """Write the Gantt chart to *path*, HTML for ``.html``/``.htm``, else SVG."""
    path = Path(path)
    if path.suffix.lower() in (".html", ".htm"):
        content = render_gantt_html(trace, max_rows=max_rows)
    else:
        content = render_gantt_svg(trace, max_rows=max_rows)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content)
    return path
