"""Busy-interval timelines.

The bi-directional one-port model of the paper states that a processor can be
engaged in **at most one outgoing and one incoming communication at a time**
(while still computing).  The scheduling heuristics therefore need, for every
processor, two *timelines* — one for the out-port, one for the in-port — plus
one timeline per processor for the compute resource itself.  A timeline is a
sorted list of non-overlapping busy :class:`Interval` objects supporting
insertion-based earliest-slot queries ("when is the first instant ``>= ready``
at which this resource is free for ``duration`` time units?").

The same structure is reused for every resource, so it lives in
:mod:`repro.utils` rather than in the schedule package.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

__all__ = ["Interval", "ScratchTimeline", "Timeline", "earliest_common_slot"]

#: Tolerance used when comparing interval endpoints; avoids spurious overlaps
#: caused by floating-point rounding in long schedules.
_EPS = 1e-9


@dataclass(frozen=True, order=True)
class Interval:
    """A half-open busy interval ``[start, end)`` with an opaque label.

    The label typically identifies the replica or communication occupying the
    resource; it is never interpreted by the timeline itself and is excluded
    from ordering so intervals sort purely by time.
    """

    start: float
    end: float
    label: object = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if math.isnan(self.start) or math.isnan(self.end):
            raise ValueError("interval endpoints must not be NaN")
        if self.end < self.start - _EPS:
            raise ValueError(f"interval end {self.end} precedes start {self.start}")

    @property
    def duration(self) -> float:
        """Length of the interval."""
        return self.end - self.start

    def overlaps(self, other: "Interval") -> bool:
        """True when the two intervals share more than a boundary point."""
        return self.start < other.end - _EPS and other.start < self.end - _EPS

    def contains(self, instant: float) -> bool:
        """True when *instant* lies inside the half-open interval."""
        return self.start - _EPS <= instant < self.end - _EPS


class _BusyIndex:
    """Parallel sorted start and end lists of non-overlapping busy intervals.

    This is all the slot search reads.  Because reserved intervals never
    overlap by more than ``_EPS`` and are longer than ``_EPS``, sorting by
    start also sorts the ends, so both lists can be bisected.
    """

    __slots__ = ("_starts", "_ends")

    def earliest_slot(self, ready: float, duration: float) -> float:
        """Earliest instant ``>= ready`` at which a gap of *duration* starts.

        A zero-duration request returns ``ready`` immediately (local
        communications cost nothing in the model).  Intervals ending before
        ``ready`` (within ``_EPS``) cannot delay the request, so the scan
        bisects past them and starts at the first one that can.
        """
        if duration <= _EPS:
            return ready
        starts, ends = self._starts, self._ends
        candidate = ready
        for i in range(bisect.bisect_right(ends, ready + _EPS), len(ends)):
            end = ends[i]
            if end <= candidate + _EPS:
                continue
            if starts[i] >= candidate + duration - _EPS:
                break
            if end > candidate:
                candidate = end
        return candidate

    def slot_floor(self, ready: float, duration: float) -> float:
        """A lower bound of ``earliest_slot(x, duration)`` over every ``x >= ready``.

        :meth:`earliest_slot` is not monotone in *ready*: its tolerances
        let a later request start in a gap that an earlier one skips (a gap
        shorter than *duration* by between one and two ``_EPS``), so its
        value at a lower bound of the ready time bounds nothing.  A slot it
        returns never lies inside the window ``(start - duration + _EPS,
        end - _EPS)`` of a busy interval.  This returns the first instant
        ``>= ready`` outside every window shrunk by one more ``_EPS`` on
        each side, which absorbs the rounding of both computations for
        instants below about 10⁶ (where ``_EPS`` dwarfs an ulp).  The value
        is non-decreasing in *ready*; it is usually the slot a request at
        *ready* gets, or ``2·_EPS`` less when an interval delays that one.
        """
        if duration <= _EPS:
            return ready
        starts, ends = self._starts, self._ends
        margin = 2.0 * _EPS
        candidate = ready
        for i in range(bisect.bisect_right(ends, ready + margin), len(ends)):
            # windows open in start order, so none after this one reaches back
            if starts[i] - duration + margin >= candidate:
                break
            end = ends[i] - margin
            if end > candidate:
                candidate = end
        return candidate


class Timeline(_BusyIndex):
    """A set of non-overlapping busy intervals on a single resource.

    Supports the two operations needed by insertion-based list scheduling:

    * :meth:`earliest_slot` — first instant ``>= ready`` at which the resource
      is idle for ``duration`` consecutive time units;
    * :meth:`reserve` — mark ``[start, start + duration)`` as busy.

    The busy intervals are kept sorted by start time, with their end times
    and labels in parallel lists; both operations are ``O(log n)`` for the
    search plus ``O(n)`` worst case for the scan / insertion, which is ample
    for the graph sizes used in the paper (50–150 tasks, 20 processors).
    :class:`Interval` objects are built only when :attr:`intervals` or
    iteration reads them.  Candidate placements plan on a
    :class:`ScratchTimeline` copy instead of reserving here.
    """

    def __init__(self, intervals: Sequence[Interval] | None = None):
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._labels: list[object] = []
        #: the :attr:`intervals` tuple, built on first read after a change.
        self._built: tuple[Interval, ...] | None = ()
        if intervals:
            for iv in sorted(intervals):
                self.reserve(iv.start, iv.duration, iv.label)

    # ------------------------------------------------------------------ dunder
    def __len__(self) -> int:
        return len(self._starts)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        body = ", ".join(f"[{s:g},{e:g})" for s, e in zip(self._starts, self._ends))
        return f"Timeline({body})"

    # ----------------------------------------------------------------- queries
    @property
    def intervals(self) -> tuple[Interval, ...]:
        """The busy intervals, sorted by start time."""
        if self._built is None:
            self._built = tuple(map(Interval, self._starts, self._ends, self._labels))
        return self._built

    @property
    def busy_time(self) -> float:
        """Total busy duration."""
        return sum(end - start for start, end in zip(self._starts, self._ends))

    @property
    def makespan(self) -> float:
        """End of the last busy interval (0 when the timeline is empty)."""
        if not self._ends:
            return 0.0
        return self._ends[-1]

    def is_free(self, start: float, duration: float) -> bool:
        """True when ``[start, start + duration)`` does not overlap any busy interval."""
        if duration <= _EPS:
            return True
        end = start + duration
        if math.isnan(end):
            raise ValueError("interval endpoints must not be NaN")
        # Interval.overlaps on the parallel lists, without building the probe
        starts, ends = self._starts, self._ends
        limit = end - _EPS
        for i in range(max(bisect.bisect_left(starts, start) - 1, 0), len(starts)):
            if starts[i] >= limit:
                break
            if start < ends[i] - _EPS:
                return False
        return True

    # --------------------------------------------------------------- mutation
    def reserve(self, start: float, duration: float, label: object = None) -> None:
        """Mark ``[start, start + duration)`` busy.

        A request no longer than the tolerance reserves nothing.  The
        checks are :class:`Interval`'s and the overlap test, run on the
        parallel lists without building an object.

        Raises
        ------
        ValueError
            If an endpoint is NaN, if the end precedes the start by more
            than the tolerance, or if the requested span overlaps an
            existing busy interval.
        """
        end = start + duration
        if end != end:  # NaN start or duration
            raise ValueError("interval endpoints must not be NaN")
        if duration <= _EPS:
            if end < start - _EPS:
                raise ValueError(f"interval end {end} precedes start {start}")
            return
        if not self.is_free(start, duration):
            raise ValueError(f"cannot reserve [{start:g}, {end:g}): resource busy")
        idx = bisect.bisect_left(self._starts, start)
        self._starts.insert(idx, start)
        self._ends.insert(idx, end)
        self._labels.insert(idx, label)
        self._built = None

    def copy(self) -> "Timeline":
        """Independent copy of the timeline (labels are shared)."""
        clone = Timeline()
        clone._starts = list(self._starts)
        clone._ends = list(self._ends)
        clone._labels = list(self._labels)
        clone._built = self._built
        return clone


class ScratchTimeline(_BusyIndex):
    """A throw-away planning copy of a :class:`Timeline`.

    It answers :meth:`earliest_slot` exactly like its timeline, and
    :meth:`occupy` inserts a span without the overlap check, the label or
    the :class:`Interval` of :meth:`Timeline.reserve`: a planner only
    occupies slots that :func:`earliest_common_slot` returned, which are
    free by construction.  The lists are shared with the timeline until the
    first :meth:`occupy` copies them, so the timeline must not change while
    the scratch copy is in use.
    """

    __slots__ = ("_owned",)

    def __init__(self, timeline: Timeline):
        self._starts = timeline._starts
        self._ends = timeline._ends
        self._owned = False

    def occupy(self, start: float, duration: float) -> None:
        """Mark ``[start, start + duration)`` busy on this copy only."""
        if duration <= _EPS:
            return
        if not self._owned:
            self._starts = list(self._starts)
            self._ends = list(self._ends)
            self._owned = True
        idx = bisect.bisect_left(self._starts, start)
        self._starts.insert(idx, start)
        self._ends.insert(idx, start + duration)


def earliest_common_slot(
    timelines: Sequence[_BusyIndex], ready: float, duration: float
) -> float:
    """Earliest instant ``>= ready`` at which *all* timelines are simultaneously free.

    Used to schedule a communication, which must occupy the sender's out-port
    and the receiver's in-port during the same time window (one-port model).

    The search visits the timelines in turn; whenever one pushes the
    candidate instant forward the others must be asked again, and the search
    stops once every timeline in a row has accepted the candidate.  A
    timeline that just moved the candidate accepts its own answer (a slot
    search started at its result returns it unchanged), so it counts as the
    first acceptance.  The search terminates because each timeline only ever
    moves the candidate to the end of one of its finitely many busy
    intervals.
    """
    if duration <= _EPS or not timelines:
        return ready
    candidate = ready
    count = len(timelines)
    accepted = 0
    i = 0
    while accepted < count:
        slot = timelines[i].earliest_slot(candidate, duration)
        if slot > candidate + _EPS:
            candidate = slot
            accepted = 1
        else:
            accepted += 1
        i = i + 1 if i + 1 < count else 0
    return candidate
