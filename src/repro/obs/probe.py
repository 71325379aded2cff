"""The instrumentation hook threaded through the kernel and the runtime.

A :class:`Probe` is an *optional* observer handed to
:class:`~repro.sim.kernel.PipelineKernel` and
:class:`~repro.runtime.engine.OnlineRuntime`.  The contract with the PR 5
performance work is strict: when no probe is attached the instrumented code
pays exactly one ``is None`` comparison per call site — the kernel hot loop
keeps a local per-kind event counter and flushes it **once per drain**, never
per event.  The ``obs_overhead`` row of ``benchmarks/bench_runtime.py``
measures what attaching a :class:`MetricsProbe` costs on a saturated stream;
nothing gates that figure.

:class:`Probe` itself is a base class of no-ops: subclass it and override the
callbacks you care about.  :class:`MetricsProbe` is the batteries-included
implementation that folds everything into a
:class:`~repro.obs.metrics.MetricsRegistry` (this is what the CLI's
``--metrics out.json`` flag attaches).

Callback cadence (who calls what, and how often):

========================  =====================================================
callback                  cadence
========================  =====================================================
``on_kernel_events``      once per kernel drain (window boundary / control
                          event), with a dense per-kind count list
``on_dataset``            once per data set, at the moment its fate is sealed
``on_runtime_event``      once per logged control decision (crash, rebuild,
                          repair, abort) — rare by construction
``on_span``               once per closed downtime interval (rebuild, abort)
``on_gauges``             once per control-loop pass (window boundary)
========================  =====================================================

Every data set runs through the event loop, so a probe sees one
``on_dataset`` call per data set and every kernel event in its
``on_kernel_events`` counts.
"""

from __future__ import annotations

from typing import Sequence

from repro.obs.metrics import MetricsRegistry
from repro.sim.kernel import EVENT_KIND_NAMES

__all__ = ["Probe", "MetricsProbe"]


class Probe:
    """Base instrumentation hook — every callback is a no-op.

    Subclasses override what they need; the runtime only promises the
    cadences documented in the module docstring, never call order between
    different callbacks at the same instant.
    """

    def on_kernel_events(self, counts: Sequence[int], now: float) -> None:
        """*counts[k]* events of kind ``EVENT_KIND_NAMES[k]`` were processed
        since the previous flush; *now* is the kernel clock at the flush."""

    def on_dataset(
        self, index: int, release: float, completion: float | None, status: str
    ) -> None:
        """Data set *index*'s fate was sealed (*completion* is ``None`` for
        every lost status)."""

    def on_runtime_event(self, event) -> None:
        """One :class:`~repro.runtime.trace.RuntimeEvent` was logged."""

    def on_span(self, kind: str, start: float, end: float) -> None:
        """A downtime interval of *kind* (``rebuild`` | ``abort``) closed."""

    def on_gauges(self, now: float, live: int, evicted: int) -> None:
        """Kernel occupancy sample: *live* data sets hold state, *evicted*
        have been retired at their watermark."""


class MetricsProbe(Probe):
    """Fold every callback into a :class:`MetricsRegistry`.

    Metric names (all cumulative over the run):

    * ``kernel.events.<kind>`` / ``kernel.events.total`` — counters;
    * ``datasets.<status>`` — counters, one per terminal status;
    * ``runtime.events.<kind>`` — counters of control decisions;
    * ``runtime.spans.<kind>`` — counter, ``runtime.downtime.<kind>`` — the
      accumulated duration gauge;
    * ``latency`` — histogram of completed-data-set latencies, plus the exact
      ``latency.max`` gauge;
    * ``kernel.live_datasets.peak`` / ``kernel.evicted_datasets`` — gauges.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        #: closed downtime intervals as ``(kind, start, end)`` tuples
        #: (kinds: ``rebuild`` | ``abort``).
        self.spans: list[tuple[str, float, float]] = []

    def on_kernel_events(self, counts: Sequence[int], now: float) -> None:
        registry = self.registry
        total = 0
        for kind, count in zip(EVENT_KIND_NAMES, counts):
            if count:
                registry.inc(f"kernel.events.{kind}", count)
                total += count
        if total:
            registry.inc("kernel.events.total", total)
        registry.max_gauge("kernel.time", now)

    def on_dataset(
        self, index: int, release: float, completion: float | None, status: str
    ) -> None:
        registry = self.registry
        registry.inc(f"datasets.{status}")
        if completion is not None:
            latency = completion - release
            registry.observe("latency", latency)
            registry.max_gauge("latency.max", latency)

    def on_runtime_event(self, event) -> None:
        self.registry.inc(f"runtime.events.{event.kind}")

    def on_span(self, kind: str, start: float, end: float) -> None:
        self.spans.append((kind, start, end))
        self.registry.inc(f"runtime.spans.{kind}")
        self.registry.add_gauge(f"runtime.downtime.{kind}", end - start)

    def on_gauges(self, now: float, live: int, evicted: int) -> None:
        registry = self.registry
        registry.max_gauge("kernel.live_datasets.peak", live)
        registry.set_gauge("kernel.evicted_datasets", evicted)

    def as_dict(self) -> dict:
        """JSON-ready snapshot: the registry plus the closed spans."""
        payload = self.registry.as_dict()
        payload["spans"] = [
            {"kind": kind, "start": start, "end": end, "duration": end - start}
            for kind, start, end in self.spans
        ]
        return payload
