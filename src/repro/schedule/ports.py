"""Per-processor one-port state.

Under the bi-directional one-port model a processor owns three independent
resources, each modelled by a :class:`~repro.utils.intervals.Timeline`:

* the **compute** resource (one task executes at a time);
* the **out-port** (at most one outgoing communication at a time);
* the **in-port** (at most one incoming communication at a time).

Computation and the two ports can be active simultaneously — this is the "full
computation/communication overlap" of the paper.  On top of the detailed
timelines we also maintain the *steady-state loads* used by the throughput
condition (1):

* ``Σ_u`` (:attr:`ProcessorTimelines.compute_load`) — time spent computing per
  data set;
* ``C^I_u`` (:attr:`ProcessorTimelines.comm_in_load`) — time spent receiving
  per data set;
* ``C^O_u`` (:attr:`ProcessorTimelines.comm_out_load`) — time spent sending
  per data set.

The cycle-time of a processor is ``Δ_u = max(Σ_u, C^I_u, C^O_u)``, and the
throughput achieved by a mapping is ``T = 1 / max_u Δ_u``.
"""

from __future__ import annotations

from repro.utils.checks import check_non_negative
from repro.utils.intervals import Timeline

__all__ = ["ProcessorTimelines"]

_INF = float("inf")


class ProcessorTimelines:
    """Timelines and steady-state loads of a single processor."""

    def __init__(self, processor: str):
        self.processor = processor
        self.compute = Timeline()
        self.in_port = Timeline()
        self.out_port = Timeline()
        self._compute_load = 0.0
        self._comm_in_load = 0.0
        self._comm_out_load = 0.0

    # ---------------------------------------------------------------- loads
    @property
    def compute_load(self) -> float:
        """``Σ_u`` — total execution time mapped on this processor per data set."""
        return self._compute_load

    @property
    def comm_in_load(self) -> float:
        """``C^I_u`` — total incoming communication time per data set."""
        return self._comm_in_load

    @property
    def comm_out_load(self) -> float:
        """``C^O_u`` — total outgoing communication time per data set."""
        return self._comm_out_load

    @property
    def cycle_time(self) -> float:
        """``Δ_u = max(Σ_u, C^I_u, C^O_u)`` — the processor's steady-state cycle time."""
        return max(self._compute_load, self._comm_in_load, self._comm_out_load)

    # ------------------------------------------------------------ reservations
    # A plain finite float passes one comparison; anything else takes the
    # full check (NaN and infinity fail the comparison, a bool or an int is
    # not a float).

    def reserve_compute(self, start: float, duration: float, label: object = None) -> None:
        """Reserve the compute resource and update ``Σ_u``."""
        if duration.__class__ is not float or not 0.0 <= duration < _INF:
            check_non_negative(duration, "duration")
        self.compute.reserve(start, duration, label)
        self._compute_load += duration

    def reserve_incoming(self, start: float, duration: float, label: object = None) -> None:
        """Reserve the in-port and update ``C^I_u``."""
        if duration.__class__ is not float or not 0.0 <= duration < _INF:
            check_non_negative(duration, "duration")
        self.in_port.reserve(start, duration, label)
        self._comm_in_load += duration

    def reserve_outgoing(self, start: float, duration: float, label: object = None) -> None:
        """Reserve the out-port and update ``C^O_u``."""
        if duration.__class__ is not float or not 0.0 <= duration < _INF:
            check_non_negative(duration, "duration")
        self.out_port.reserve(start, duration, label)
        self._comm_out_load += duration

    # ---------------------------------------------------------------- queries
    def utilization(self, period: float) -> float:
        """Fraction of the period spent computing (``U_P`` in the paper)."""
        if period <= 0:
            raise ValueError(f"period must be > 0, got {period}")
        return self._compute_load / period

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ProcessorTimelines({self.processor!r}, Σ={self._compute_load:.2f}, "
            f"CI={self._comm_in_load:.2f}, CO={self._comm_out_load:.2f})"
        )
