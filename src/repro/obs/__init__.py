"""Observability: instrumentation probes, metrics, trace export, sampling.

The ``repro.obs`` package is the inspection layer over the simulation kernel
and the online runtime (ROADMAP: "Observability & runtime resilience"):

* :mod:`repro.obs.metrics` — counters, gauges and the merge-exact
  fixed-bucket :class:`LatencyHistogram` behind the campaign percentiles;
* :mod:`repro.obs.probe` — the optional :class:`Probe` hook threaded through
  :class:`~repro.sim.kernel.PipelineKernel` and
  :class:`~repro.runtime.engine.OnlineRuntime`, and the batteries-included
  :class:`MetricsProbe`;
* :mod:`repro.obs.gantt` — deterministic SVG/HTML Gantt rendering of one
  :class:`~repro.runtime.trace.RuntimeTrace`;
* :mod:`repro.obs.sample` — seeded sampled-trace retention (keep all faulted
  data sets, a fraction of the clean ones).

Import-order constraint: :mod:`repro.runtime.trace` imports
:mod:`repro.obs.metrics` for its percentile fields, so nothing in this
package may import :mod:`repro.runtime` at module import time (the Gantt and
sampling helpers duck-type the trace instead).

See ``docs/observability.md`` for the user-facing tour.
"""

from repro import _lazy_exports

# Loaded on first access: the runtime trace imports the metrics module, and
# that must not pull in the Gantt renderer or the trace sampler.
_EXPORTS = {
    "repro.obs.metrics": ("LATENCY_BUCKET_EDGES", "LatencyHistogram", "MetricsRegistry"),
    "repro.obs.probe": ("MetricsProbe", "Probe"),
    "repro.obs.gantt": (
        "STATUS_COLORS", "render_gantt_svg", "render_gantt_html", "write_gantt",
    ),
    "repro.obs.sample": ("sample_trace",),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [name for names in _EXPORTS.values() for name in names]
