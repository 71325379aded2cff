"""Admission policies: what happens to data sets the pipeline cannot take.

The online runtime admits at most one data set per *effective period* of the
current schedule, and admits nothing at all while a rebuild is in progress.
An :class:`AdmissionPolicy` decides the fate of every released data set under
those constraints:

* :class:`ShedAdmissionPolicy` (``"shed"``) — the historical behaviour: a
  data set released during rebuild downtime is lost (``lost-downtime``), a
  data set released faster than the achievable rate is dropped (``shed``).
  Memoryless, loses data, never builds backlog.
* :class:`QueueAdmissionPolicy` (``"queue"``) — a bounded admission buffer:
  data sets released during downtime are *queued* and drained once the
  rebuild completes, and a data set released faster than the achievable rate
  simply waits for the next free slot (its latency grows by the waiting
  time).  When the buffer is full the overflow is dropped with status
  ``lost-overflow``.  An unbounded buffer (``capacity=None``) never drops on
  its own — data is then lost only if the stream aborts or the horizon ends
  mid-rebuild.

Policies are resolved by name through :data:`ADMISSION_POLICIES`
(:class:`~repro.utils.registry.PolicyRegistry`), mirroring the rescheduling
policies of :mod:`repro.runtime.policies`.
"""

from __future__ import annotations

from collections import deque
from typing import Protocol, runtime_checkable

from repro.utils.registry import PolicyRegistry

__all__ = [
    "AdmissionPolicy",
    "ShedAdmissionPolicy",
    "QueueAdmissionPolicy",
    "ADMISSION_POLICIES",
    "resolve_admission",
]

#: decision verbs returned by :meth:`AdmissionPolicy.on_release`.
ADMIT, DROP, DEFER = "admit", "drop", "defer"


@runtime_checkable
class AdmissionPolicy(Protocol):
    """Interface of an admission policy (see module docstring)."""

    name: str

    def reset(self) -> None:
        """Forget any buffered state (called at the start of every run)."""
        ...  # pragma: no cover - protocol

    def on_release(
        self,
        dataset: int,
        release: float,
        *,
        rebuilding: bool,
        next_slot: float,
        admit_period: float,
        tol: float,
    ) -> tuple[str, object]:
        """Decide the fate of *dataset* released at *release*.

        Returns one of ``("admit", admission_instant)``,
        ``("drop", status)`` with a terminal
        :data:`~repro.runtime.trace.DATASET_STATUSES` entry, or
        ``("defer", None)`` when the data set is buffered inside the policy.
        *admit_period* is the current admission spacing — one data set per
        period at most — which a backlog-bounding policy needs to know how
        many admitted data sets are still waiting for their slot.
        """
        ...  # pragma: no cover - protocol

    def drain(self) -> list[tuple[int, float]]:
        """Hand back the buffered ``(dataset, release)`` pairs, FIFO."""
        ...  # pragma: no cover - protocol


class ShedAdmissionPolicy:
    """Drop everything the pipeline cannot take right now (no backlog)."""

    name = "shed"

    def reset(self) -> None:  # stateless
        pass

    def on_release(
        self,
        dataset: int,
        release: float,
        *,
        rebuilding: bool,
        next_slot: float,
        admit_period: float,
        tol: float,
    ) -> tuple[str, object]:
        if rebuilding:
            return DROP, "lost-downtime"
        if release >= next_slot - tol:
            return ADMIT, release
        return DROP, "shed"

    def drain(self) -> list[tuple[int, float]]:
        return []


class QueueAdmissionPolicy:
    """Buffer data sets through downtime and rate throttling.

    The *capacity* bounds the backlog in **both** phases: during a rebuild it
    is the number of buffered data sets waiting for the new schedule; while
    running it is the number of admitted data sets still waiting for their
    admission slot (``(next_slot - release) / admit_period`` of them are in
    the waiting line when a new release arrives).  Either way, a release that
    would push the backlog past *capacity* is dropped with ``lost-overflow``.

    Parameters
    ----------
    capacity:
        Maximum backlog; ``None`` means unbounded.
    """

    name = "queue"

    def __init__(self, capacity: int | None = 64):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.capacity = capacity
        self._buffer: deque[tuple[int, float]] = deque()

    def reset(self) -> None:
        self._buffer.clear()

    def on_release(
        self,
        dataset: int,
        release: float,
        *,
        rebuilding: bool,
        next_slot: float,
        admit_period: float,
        tol: float,
    ) -> tuple[str, object]:
        if rebuilding:
            if self.capacity is not None and len(self._buffer) >= self.capacity:
                return DROP, "lost-overflow"
            self._buffer.append((dataset, release))
            return DEFER, None
        # Running: a release that shed would take (within *tol* of the slot)
        # is admitted on time; one released too fast waits for the next free
        # slot instead of being shed, and its latency absorbs the waiting
        # time — but only while the waiting line fits the configured backlog.
        if release >= next_slot - tol:
            return ADMIT, release
        if self.capacity is not None and admit_period > 0:
            waiting = (next_slot - release) / admit_period
            if waiting > self.capacity:
                return DROP, "lost-overflow"
        return ADMIT, next_slot

    def drain(self) -> list[tuple[int, float]]:
        drained = list(self._buffer)
        self._buffer.clear()
        return drained


#: registry of admission policies: name -> zero-argument factory.
ADMISSION_POLICIES = PolicyRegistry("admission policy")
ADMISSION_POLICIES.register(ShedAdmissionPolicy)
ADMISSION_POLICIES.register(QueueAdmissionPolicy)


def resolve_admission(policy: str | AdmissionPolicy) -> AdmissionPolicy:
    """Coerce an admission-policy name or instance into a policy instance."""
    return ADMISSION_POLICIES.resolve(policy, AdmissionPolicy)
