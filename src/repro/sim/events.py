"""The event queue of the kernel.

A single binary heap keyed by ``(time, sequence)``: the sequence number is
drawn from a monotonically increasing counter, so events at the same instant
pop in the order their numbers were drawn.  This tie-breaking rule is part of
the kernel's contract — every run relies on it to stay bit-for-bit
reproducible.  A number is normally drawn at push time; the kernel's
:meth:`~repro.sim.kernel.PipelineKernel.reserve` draws the numbers of later
admissions ahead (:meth:`EventQueue.next_seq` / :meth:`EventQueue.set_next_seq`),
which is still the one rule: a release wins the ties its reservation
predates.

Entries are flat tuples ``(time, sequence, kind, *operands)``.  Event kinds
are small ints (interned by CPython), not strings: the kind is dispatched on
once per event in the kernel's hot loop, and it never takes part in heap
ordering — ``(time, sequence)`` is always a unique sort key, so the
comparison chain never reaches the kind or the operands.  The kernel pops
:attr:`EventQueue.heap` itself (``heapq.heappop``), so the queue has no pop
method and no clock of its own: the kernel's clock is
:attr:`repro.sim.kernel.PipelineKernel.now`.
"""

from __future__ import annotations

import heapq

__all__ = ["EventQueue"]


class EventQueue:
    """Time-ordered event heap with deterministic FIFO tie-breaking."""

    __slots__ = ("heap", "_count")

    def __init__(self) -> None:
        #: the raw heap of ``(time, seq, kind, *operands)`` tuples.  The
        #: kernel's hot loop pops and pushes it directly to avoid a method
        #: call per event; every other caller must treat it as read-only.
        self.heap: list[tuple] = []
        self._count = 0

    def __len__(self) -> int:
        return len(self.heap)

    def __bool__(self) -> bool:
        return bool(self.heap)

    def push(self, time: float, kind: int, *operands) -> None:
        """Schedule the event ``(time, seq, kind, *operands)``."""
        self._count += 1
        heapq.heappush(self.heap, (time, self._count, kind, *operands))

    def next_seq(self) -> int:
        """The sequence number the *next* pushed event would receive.

        Batch admission builds ``(time, seq, kind, *operands)`` tuples itself
        (extending :attr:`heap` then heapifying once is O(n), n pushes are
        O(n log n)); it must draw the same consecutive sequence numbers a
        push loop would have, so ties keep resolving in admission order.
        Pair with :meth:`set_next_seq` after extending the heap (the
        kernel's ``reserve`` pairs them the same way, before its pushes).
        """
        return self._count + 1

    def set_next_seq(self, seq: int) -> None:
        """Record that sequence numbers below *seq* are now taken."""
        if seq <= self._count:
            raise ValueError(
                f"sequence numbers must grow: next_seq {seq} <= current {self._count}"
            )
        self._count = seq - 1
