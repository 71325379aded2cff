"""Steady-state detection and closed-form fast-forward of quiet streams.

A fault-free stretch of a uniform stream is *periodic*: once the pipeline is
warm, data set ``j+W`` repeats data set ``j``'s record shifted by exactly
``W·Δ``.  Simulating every event of such a stretch is pure waste — the kernel
state itself repeats modulo a time shift, so the remaining records can be
written down in closed form (arithmetic progressions of completion instants)
and the clock jumped to the next boundary that actually changes anything: a
fault arrival, a repair, the trace end, or an admission-regime change.

The hard part is the correctness bar: traces must stay **bit-identical** to
the full event-driven simulation.  Floating-point timestamps make naive
extrapolation unsound — two windows can look equal while their continuations
drift apart in the last ulp.  This module therefore only ever fast-forwards
under an *exactness certificate*:

* every compute/transfer duration and the stream period must be an integer
  multiple of one power-of-two grid ``g = 2**grid_exp``
  (:func:`certified_grid`), with enough headroom that every timestamp of the
  run stays far below ``2**52·g``;
* every live timestamp of a candidate snapshot must itself sit on the grid
  (:func:`capture` refuses otherwise).

Under the certificate all kernel arithmetic (sums of grid multiples, ``max``,
comparisons) is **exact**, so the event step function commutes with a time
shift by any grid multiple.  Two successive admission-window boundaries with
identical shift-normalized snapshots and an exact delta of ``W·Δ`` therefore
*prove* that the stream repeats forever (until an external control event):
the extrapolated records equal the simulated ones bit for bit, by
construction rather than by hope.  Workloads that fail the certificate — the
random paper workloads with full-mantissa durations — simply never enter the
fast path and are simulated exactly as before.

The snapshot (:func:`capture`) normalizes away the two running offsets:

* **time** — every live instant is stored as ``t - t_base`` (exact on the
  grid); port-free instants at or before ``t_base`` are collapsed to a
  ``PAST`` sentinel, because a one-port reservation in the past is
  unobservable (every future operation starts at ``max(event_time, free)``
  with ``event_time > t_base``);
* **dataset index** — every index is stored as ``j - j_base`` where
  ``j_base`` is the next index to admit, so window ``k`` and window ``k+1``
  produce identical tuples in steady state.

The kernel keeps one record per live data set (see :mod:`repro.sim.kernel`);
a snapshot lists the live records in index order, each with its index and
every time slot normalized.  Heap events are normalized in ``(time, seq)``
order with their operands resolved to replica-state indices and their
record to its normalized index; re-materializing them with fresh
consecutive sequence numbers (:func:`restore`) preserves the pop order the
tie-breaking contract of :mod:`repro.sim.events` promises.

Drivers (:class:`repro.failures.simulator.StreamingSimulator` offline,
:class:`repro.runtime.engine.OnlineRuntime` between fault arrivals) own the
admission loop; they feed window boundaries to :class:`SteadyStateDetector`
and, on a lock, synthesize the skipped records themselves from the last
window's drained completions before calling :func:`restore` to land the
kernel at the far end of the jump.
"""

from __future__ import annotations

import math

from repro.sim.kernel import _ARRIVED, _INDEX, _RELEASE_ALL

__all__ = [
    "DEFAULT_WINDOW",
    "certified_grid",
    "capture",
    "restore",
    "SteadyStateDetector",
]

#: admission-window size (data sets per fingerprint boundary) used by drivers
#: that do not already have a window of their own.  Matches the online
#: runtime's ``_ADMIT_WINDOW`` so both drivers lock after the same warm-up.
DEFAULT_WINDOW = 256

#: headroom exponent of the range screen: every timestamp of the run must
#: stay below ``2**_RANGE_EXP`` grid units, far enough under the 53-bit
#: mantissa that sums, differences and tolerance-perturbed comparisons of
#: grid multiples are all exact (see :func:`certified_grid`).
_RANGE_EXP = 48

#: per-value representability bound: a normalized timestamp must be an
#: integer multiple of the grid with magnitude below ``2**52`` grid units.
_VALUE_BOUND = float(2**52)


class _OffGrid(Exception):
    """A live timestamp does not sit exactly on the certified grid."""


def _lsb_exp(x: float) -> int | None:
    """Exponent of the largest power of two dividing *x* exactly.

    ``x = m · 2**e`` with *m* an odd integer; returns *e*.  ``None`` for
    non-finite values, and for zero (which is a multiple of every grid and
    never constrains it).
    """
    if x == 0.0:
        return None
    if not math.isfinite(x):
        raise _OffGrid(f"non-finite duration {x!r}")
    mantissa, exp = math.frexp(x)
    scaled = int(mantissa * 2**53)  # exact: |mantissa| in [0.5, 1)
    trailing = (scaled & -scaled).bit_length() - 1
    return exp - 53 + trailing


def certified_grid(kernel, period: float, horizon: float) -> int | None:
    """The exactness certificate: grid exponent, or ``None`` (no fast path).

    Collects every duration the kernel can ever add to a timestamp (compute
    durations, transfer durations, the admission period) and finds the
    coarsest power-of-two grid ``g = 2**grid_exp`` they all sit on.  The
    certificate additionally requires

    * ``4·horizon < 2**48 · g`` — every timestamp of the run stays so far
      below the 53-bit mantissa limit that all grid-multiple additions,
      subtractions and shifted comparisons are exact;
    * ``tol < g/4`` for the runtime's release tolerance ``1e-9·Δ`` — a
      tolerance-perturbed comparison can never separate two grid points.

    Full-mantissa durations (the random paper workloads) produce a grid of
    ``~2**-45`` and fail the range screen immediately: the fast path then
    disables itself and the driver simulates every event, exactly as before.
    """
    if period <= 0.0 or not math.isfinite(period) or not math.isfinite(horizon):
        return None
    values = [period]
    for state in kernel._states:
        values.append(state.duration)
        for _link, duration, _proc in state.links:
            values.append(duration)
    grid_exp: int | None = None
    try:
        for value in values:
            exp = _lsb_exp(value)
            if exp is not None and (grid_exp is None or exp < grid_exp):
                grid_exp = exp
    except _OffGrid:
        return None
    if grid_exp is None:
        grid_exp = 0  # all durations zero: any grid certifies
    if math.ldexp(4.0 * max(horizon, period), -grid_exp) >= float(2**_RANGE_EXP):
        return None
    if 1e-9 * period >= math.ldexp(0.25, grid_exp):
        return None
    return grid_exp


def _norm(t: float, base: float, grid_exp: int) -> float:
    """Exact ``t - base`` for a grid timestamp (raises :class:`_OffGrid`)."""
    scaled = math.ldexp(t, -grid_exp)
    if not (scaled == math.floor(scaled) and abs(scaled) < _VALUE_BOUND):
        raise _OffGrid(f"timestamp {t!r} off the 2**{grid_exp} grid")
    return t - base  # difference of in-range grid multiples: exact


def capture(kernel, t_base: float, j_base: int, grid_exp: int):
    """Shift-normalized snapshot of *kernel* at boundary ``(t_base, j_base)``.

    Returns a plain nested tuple — two captures compare equal exactly when
    the kernel states are time/index shifts of each other — or ``None`` when
    the state is not certifiably extrapolable (a live timestamp off the
    grid, or an undrained completion).  The tuple doubles as the restore
    payload for :func:`restore`.
    """
    if kernel._fresh:
        return None
    slots = kernel._time_slots
    links = {
        id(link): (s.index, link[0].index, link[1])
        for s in kernel._states
        for link, _duration, _proc in s.links
    }
    try:
        records = []
        for j in sorted(kernel._live):
            rec = list(kernel._live[j])
            rec[_INDEX] = j - j_base
            for slot in slots:
                t = rec[slot]
                if t is not None:
                    rec[slot] = _norm(t, t_base, grid_exp)
            records.append(tuple(rec))
        # one-port reservations in the past are unobservable: every future
        # start is max(event_time, free) with event_time > t_base, so any
        # free <= t_base behaves identically — collapse them to one sentinel
        frees = tuple(
            tuple(None if t <= t_base else _norm(t, t_base, grid_exp) for t in free)
            for free in (kernel._compute_free, kernel._out_free, kernel._in_free)
        )
        events = []
        for t, _seq, kind, operand, rec in sorted(kernel._queue.heap):
            dt = _norm(t, t_base, grid_exp)
            dj = rec[_INDEX] - j_base
            if kind == _ARRIVED:
                events.append((dt, kind, *links[id(operand)], dj))
            elif kind == _RELEASE_ALL:
                events.append((dt, kind, -1, -1, 0, dj))
            else:  # _RELEASE / _COMPUTED: the operand is the replica state
                events.append((dt, kind, operand.index, -1, 0, dj))
    except _OffGrid:
        return None
    return (tuple(records), frees, tuple(events), tuple(sorted(kernel._dead)))


def restore(kernel, snapshot, t_new: float, j_new: int, skipped: int) -> None:
    """Land *kernel* at boundary ``(t_new, j_new)`` from *snapshot*.

    Every normalized instant is re-based onto ``t_new`` and every index onto
    ``j_new`` — exact grid arithmetic, so the materialized state equals the
    one the full simulation would have reached.  Heap events keep their
    captured ``(time, seq)`` order under fresh consecutive sequence numbers
    drawn *above* the queue's counter: pending events must pop before any
    event pushed afterwards at the same instant, which is exactly the
    relative order the full simulation would have produced.  Releases a
    ``releases_first`` kernel admits after the jump still come from its
    lower lane and pop first at their instant, as in the full simulation (a
    uniform stream never releases two data sets at one instant).  *skipped*
    data sets completed inside the jump and are accounted as evicted.
    """
    records, frees, events, _dead = snapshot
    slots = kernel._time_slots
    live = {}
    for normalized in records:
        rec = list(normalized)
        rec[_INDEX] += j_new
        for slot in slots:
            dt = rec[slot]
            if dt is not None:
                rec[slot] = dt + t_new
        live[rec[_INDEX]] = rec
    for free, values in zip(
        (kernel._compute_free, kernel._out_free, kernel._in_free), frees
    ):
        free[:] = [t_new if dt is None else dt + t_new for dt in values]
    states = kernel._states
    links = {
        (s.index, link[0].index, link[1]): link
        for s in states
        for link, _duration, _proc in s.links
    }
    queue = kernel._queue
    seq = queue._count
    heap = []
    for offset, (dt, kind, a, b, bit, dj) in enumerate(events, start=1):
        if kind == _ARRIVED:
            operand = links[a, b, bit]
        elif kind == _RELEASE_ALL:
            operand = None
        else:
            operand = states[a]
        heap.append((dt + t_new, seq + offset, kind, operand, live[dj + j_new]))
    queue.heap = heap  # ascending (time, seq): already a valid min-heap
    queue._count = seq + len(events)
    kernel._live = live
    kernel._fresh = []
    kernel._now = t_new
    kernel._evicted += skipped
    watermark = j_new - 1
    while watermark in live:
        watermark -= 1
    if watermark > kernel._max_evicted:
        kernel._max_evicted = watermark


class SteadyStateDetector:
    """Lock onto a repeating kernel state at admission-window boundaries.

    The driver calls :meth:`observe` at every window boundary of a quiet
    stretch, passing whether the window was *clean* (every release admitted
    at its own release instant — no drop, no defer, no throttled slot).  Two
    successive clean boundaries with equal snapshots and the exact delta
    ``window·Δ`` lock the detector; :attr:`lock` then holds the snapshot the
    driver jumps from.  Any control event must :meth:`reset` the detector —
    the proof of periodicity only covers undisturbed evolution.
    """

    def __init__(self, kernel, grid_exp: int, period: float, window: int):
        self.kernel = kernel
        self.grid_exp = grid_exp
        self.period = period
        self.window = int(window)
        self.delta = self.window * period  # grid multiple in range: exact
        self._prev = None  # (snapshot, t_base, j_base) of the last boundary
        self.lock = None  # (snapshot, t_base, j_base) once locked

    def reset(self) -> None:
        self._prev = None
        self.lock = None

    def observe(self, t_base: float, j_base: int, clean: bool) -> bool:
        """Fingerprint the boundary; return ``True`` on a (re-)lock."""
        if not clean:
            self.reset()
            return False
        snapshot = capture(self.kernel, t_base, j_base, self.grid_exp)
        prev, self._prev = self._prev, None
        if snapshot is None:
            self.lock = None
            return False
        self._prev = (snapshot, t_base, j_base)
        if (
            prev is not None
            and prev[2] + self.window == j_base
            and t_base - prev[1] == self.delta
            and prev[0] == snapshot
        ):
            self.lock = (snapshot, t_base, j_base)
            return True
        self.lock = None
        return False

    def max_windows(self, t_base: float, budget: int, limit: float) -> int:
        """Largest jumpable window count from ``t_base``: at most *budget*
        windows (the remaining stream), landing at or before *limit* (the
        next control event), with the landing instant still safely inside
        the certificate's exact range."""
        m = budget
        if limit != math.inf:
            m = min(m, int((limit - t_base) / self.delta))
            while m > 0 and t_base + m * self.delta > limit:
                m -= 1
        while m > 0 and (
            math.ldexp(t_base + (m + 2) * self.delta, -self.grid_exp)
            >= float(2**_RANGE_EXP)
        ):
            m -= 1
        return max(m, 0)

    def jump(self, m: int) -> tuple[float, int]:
        """Fast-forward the kernel by *m* windows from the locked boundary.

        Returns the landing boundary ``(t_new, j_new)``.  The driver is
        responsible for having synthesized the skipped records first.
        """
        snapshot, t_base, j_base = self.lock
        t_new = t_base + m * self.delta
        j_new = j_base + m * self.window
        restore(self.kernel, snapshot, t_new, j_new, m * self.window)
        # the landed state is (provably) the locked state shifted: seed the
        # next boundary comparison with it so an ongoing quiet stretch
        # re-locks immediately instead of re-warming two windows
        self._prev = (snapshot, t_new, j_new)
        self.lock = None
        return t_new, j_new
