"""Supervised process pool: retry, timeout-kill, respawn, drain.

:func:`supervised_map` is the one pool primitive of the package: campaigns,
suites and the figure studies all fan out through it.  It maps a picklable
function over a list bit-identically to a serial loop, and survives the
infrastructure failing:

* a **dead worker** (``BrokenProcessPool``) respawns the pool and retries
  only the units that were in flight, each with a bounded attempt budget
  and exponential backoff (:class:`RetryPolicy`);
* a **stuck worker** is killed once a unit exceeds the per-unit wall-clock
  ``timeout``; the timed-out unit is charged an attempt, innocent units
  that died with the pool are resubmitted without one;
* a **corrupted payload** (:class:`~repro.resilience.chaos.CorruptPayload`,
  or anything the ``reject`` hook refuses) is discarded and the unit
  retried — the transport delivering *something* is not trusted to have
  delivered the *result*;
* retry exhaustion is not an exception here: the unit is recorded as a
  :class:`UnitFailure` and the map completes, so callers (``run_suite``)
  can degrade gracefully to a partial result instead of losing the
  campaign;
* an external **stop flag** (SIGTERM/SIGINT via :func:`drain_signals`)
  drains the map: completed units keep their values — and have already been
  checkpointed through ``on_result`` — outstanding ones are abandoned, and
  the outcome is marked ``interrupted``.

Determinism: retries re-run ``fn(item)`` which is pure in every caller
(trial seeds are pre-derived), so a recovered run is bit-identical to an
undisturbed one regardless of which workers died when.
"""

from __future__ import annotations

import signal
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from repro.exceptions import ReproError, SpecificationError
from repro.resilience.chaos import ChaosCrash, ChaosSpec, CorruptPayload

__all__ = [
    "ExecutionError",
    "ExecutionInterrupted",
    "RetryPolicy",
    "SupervisedOutcome",
    "UnitFailure",
    "drain_signals",
    "supervised_map",
]

#: Counter names reported by :func:`supervised_map` (and echoed into obs
#: registries / ``SweepResult.resilience`` by callers).  Zero-valued counters
#: are included so dashboards see a stable vocabulary.
COUNTER_NAMES = (
    "retries",
    "worker_crashes",
    "timeouts",
    "pool_respawns",
    "corrupt_payloads",
)


class ExecutionError(ReproError):
    """A campaign could not complete after exhausting every retry.

    Raised by :func:`~repro.experiments.parallel.run_runtime_campaign` and
    :func:`~repro.experiments.campaign.run_campaign`, which have no
    partial-result shape to degrade into (suites do — they annotate the
    failed point instead).  Carries the surviving :class:`UnitFailure`
    records so the message names which trials died and why.
    """

    def __init__(self, failures: Sequence["UnitFailure"], what: str = "campaign"):
        self.failures = tuple(failures)
        detail = "; ".join(f.describe() for f in self.failures[:3])
        more = len(self.failures) - 3
        if more > 0:
            detail += f"; and {more} more"
        super().__init__(
            f"{what} lost {len(self.failures)} unit(s) after retry exhaustion: {detail}"
        )


class ExecutionInterrupted(ReproError):
    """A drained run stopped before completing (SIGTERM/SIGINT).

    Raised by runners that cannot return a partial result.  When the run had
    ``resume=True`` the completed trials were already checkpointed, so the
    message points at re-running with resume to pick up where it stopped.
    """

    def __init__(self, what: str, resumable: bool):
        self.resumable = resumable
        hint = (
            "completed trials were checkpointed — re-run with resume to "
            "execute only the missing ones"
            if resumable
            else "re-run with resume=True and a cache to make interruption "
            "recoverable"
        )
        super().__init__(f"{what} was interrupted before completing; {hint}")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for lost (point, trial) units.

    ``max_retries`` is the number of *re*-executions after the first attempt
    (so a unit runs at most ``max_retries + 1`` times).  The delay before
    retrying attempt ``k`` (0-based failed attempt) is
    ``min(backoff_max, backoff_base * backoff_factor ** k)`` — deliberately
    jitter-free so runs stay reproducible.
    """

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0

    def __post_init__(self) -> None:
        if not isinstance(self.max_retries, int) or self.max_retries < 0:
            raise SpecificationError(
                f"max_retries must be a non-negative int, got {self.max_retries!r}"
            )
        for name in ("backoff_base", "backoff_factor", "backoff_max"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or value < 0:
                raise SpecificationError(
                    f"{name} must be a non-negative number, got {value!r}"
                )

    def delay(self, failed_attempt: int) -> float:
        return min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** failed_attempt,
        )


@dataclass(frozen=True)
class UnitFailure:
    """One unit that exhausted its retries (or was interrupted mid-drain)."""

    index: int
    token: int
    kind: str  # "crash" | "timeout" | "error" | "corrupt" | "interrupted"
    attempts: int
    error: str

    def describe(self) -> str:
        return (
            f"unit #{self.index} (token {self.token}) {self.kind} "
            f"after {self.attempts} attempt(s): {self.error}"
        )


@dataclass
class SupervisedOutcome:
    """What :func:`supervised_map` delivers: values, casualties, counters."""

    values: list
    failures: tuple[UnitFailure, ...] = ()
    counters: dict[str, int] = field(default_factory=dict)
    interrupted: bool = False

    @property
    def complete(self) -> bool:
        return not self.failures and not self.interrupted


@contextmanager
def drain_signals(
    signals: Sequence[int] = (signal.SIGINT, signal.SIGTERM),
) -> Iterator[threading.Event]:
    """Install SIGTERM/SIGINT handlers that request a drain instead of dying.

    Yields a :class:`threading.Event`; a caught signal sets it, and the
    supervised map notices between completions, stops handing out work, and
    returns with ``interrupted=True`` — completed trials having already been
    flushed through ``on_result``.  Handlers are restored on exit.  Outside
    the main thread (the service worker pool) signals cannot be hooked, so
    the event is yielded unwired and the caller's own lifecycle applies.
    """
    flag = threading.Event()
    if threading.current_thread() is not threading.main_thread():
        yield flag
        return
    previous = {}
    for signum in signals:
        previous[signum] = signal.signal(
            signum, lambda _signum, _frame: flag.set()
        )
    try:
        yield flag
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def _invoke(fn, chaos: ChaosSpec | None, token: int, attempt: int, item):
    """The unit of work shipped to a worker: chaos first, then the real call.

    Module-level so it pickles; chaos decisions are keyed on (token, attempt)
    which both sides of the process boundary can reproduce.
    """
    if chaos is not None:
        marker = chaos.inject(token, attempt)
        if marker is not None:
            return marker
    return fn(item)


def supervised_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    jobs: int | None = 1,
    *,
    tokens: Sequence[int] | None = None,
    policy: RetryPolicy | None = None,
    timeout: float | None = None,
    chaos: ChaosSpec | None = None,
    on_result: Callable[[int, Any], None] | None = None,
    stop: threading.Event | None = None,
) -> SupervisedOutcome:
    """Map ``fn`` over ``items`` under supervision; never raises for lost units.

    ``tokens`` are stable per-item identities (trial seeds) used to key chaos
    decisions and name failures; they default to the item index.  ``timeout``
    is per-unit wall clock, enforced by killing the pool (it requires
    ``jobs >= 2`` — a stuck unit cannot be preempted in-process, so serial
    execution ignores it).  ``on_result(index, value)`` fires in the parent
    as each unit completes, in completion order — this is the checkpoint
    hook.  ``stop`` drains: no new work is started once set.  ``jobs`` of
    ``None``, 0 or 1 runs serially in-process, with the same results.
    """
    policy = policy or RetryPolicy()
    if timeout is not None and not timeout > 0:  # also rejects nan
        raise SpecificationError(f"trial timeout must be > 0, got {timeout!r}")
    items = list(items)
    if tokens is None:
        tokens = list(range(len(items)))
    else:
        tokens = [int(t) for t in tokens]
        if len(tokens) != len(items):
            raise SpecificationError(
                f"got {len(tokens)} tokens for {len(items)} items"
            )
    state = _MapState(
        values=[None] * len(items),
        policy=policy,
        tokens=tokens,
        on_result=on_result,
        counters={name: 0 for name in COUNTER_NAMES},
    )
    if not items:
        return state.outcome()
    if jobs is None or jobs <= 1 or len(items) == 1:
        _serial_map(fn, items, chaos, stop, state)
    else:
        _pool_map(fn, items, min(jobs, len(items)), chaos, timeout, stop, state)
    return state.outcome()


@dataclass
class _MapState:
    """Mutable bookkeeping shared by the serial and pool execution paths."""

    values: list
    policy: RetryPolicy
    tokens: Sequence[int]
    on_result: Callable[[int, Any], None] | None
    counters: dict[str, int]
    failures: list[UnitFailure] = field(default_factory=list)
    interrupted: bool = False

    def deliver(self, index: int, value) -> None:
        self.values[index] = value
        if self.on_result is not None:
            self.on_result(index, value)

    def retry_or_fail(self, index: int, attempt: int, kind: str, error: str) -> bool:
        """Charge ``attempt`` as failed; True if the unit has retries left."""
        if attempt < self.policy.max_retries:
            self.counters["retries"] += 1
            return True
        self.failures.append(
            UnitFailure(
                index=index,
                token=self.tokens[index],
                kind=kind,
                attempts=attempt + 1,
                error=error,
            )
        )
        return False

    def outcome(self) -> SupervisedOutcome:
        return SupervisedOutcome(
            values=self.values,
            failures=tuple(self.failures),
            counters=dict(self.counters),
            interrupted=self.interrupted,
        )


def _serial_map(fn, items, chaos, stop, state: _MapState) -> None:
    """In-process execution: same retry accounting, no pool to break.

    Chaos crashes surface as :class:`ChaosCrash` (a real ``os._exit`` would
    take the caller down) and are charged exactly like a dead worker.
    """
    for index, item in enumerate(items):
        if stop is not None and stop.is_set():
            state.interrupted = True
            return
        attempt = 0
        while True:
            try:
                value = _invoke(fn, chaos, state.tokens[index], attempt, item)
            except ChaosCrash as exc:
                state.counters["worker_crashes"] += 1
                kind, error = "crash", str(exc)
            except Exception as exc:
                kind, error = "error", f"{type(exc).__name__}: {exc}"
            else:
                if isinstance(value, CorruptPayload):
                    state.counters["corrupt_payloads"] += 1
                    kind, error = "corrupt", "unit returned a corrupted payload"
                else:
                    state.deliver(index, value)
                    break
            if not state.retry_or_fail(index, attempt, kind, error):
                break
            time.sleep(state.policy.delay(attempt))
            attempt += 1


def _kill_pool(executor) -> None:
    """Hard-stop a pool whose workers cannot be trusted to finish."""
    processes = getattr(executor, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.kill()
        except Exception:
            pass
    try:
        executor.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass


def _pool_map(fn, items, workers, chaos, timeout, stop, state: _MapState) -> None:
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    # (index, attempt) work queue plus a not-before ledger for backoff; with a
    # timeout the submission window equals the worker count so submit time is
    # start time (the wall clock must measure the unit, not the queue).
    ready: deque[tuple[int, int]] = deque((i, 0) for i in range(len(items)))
    delayed: list[tuple[float, int, int]] = []  # (ready_at, index, attempt)
    window = workers if timeout is not None else workers * 4
    executor = ProcessPoolExecutor(max_workers=workers)
    in_flight: dict = {}  # future -> (index, attempt, submitted_at)

    def requeue(index: int, attempt: int, kind: str, error: str) -> None:
        if state.retry_or_fail(index, attempt, kind, error):
            delay = state.policy.delay(attempt)
            if delay > 0:
                delayed.append((time.monotonic() + delay, index, attempt + 1))
            else:
                ready.append((index, attempt + 1))

    def respawn() -> None:
        nonlocal executor
        state.counters["pool_respawns"] += 1
        _kill_pool(executor)
        executor = ProcessPoolExecutor(max_workers=workers)

    def handle_broken() -> None:
        # The surviving futures belong to a broken pool: casualties, but not
        # necessarily suspects.  With a chaos spec the parent can replay each
        # unit's deterministic (token, attempt) decision and charge only the
        # units whose schedule says "crash" — innocents resubmit at the same
        # attempt and the recovered run stays bit-identical.  Without a spec
        # (or when chaos predicts no culprit, i.e. the crash was real) every
        # in-flight unit is charged: we cannot tell who killed the worker,
        # and a deterministically-crashing unit would otherwise loop forever.
        casualties = list(in_flight.values())
        in_flight.clear()
        suspects = None
        if chaos is not None:
            suspects = {
                (index, attempt)
                for index, attempt, _submitted in casualties
                if chaos.decide(state.tokens[index], attempt) == "crash"
            } or None
        for index, attempt, _submitted in casualties:
            if suspects is not None and (index, attempt) not in suspects:
                ready.append((index, attempt))
            else:
                requeue(index, attempt, "crash",
                        "worker process died (BrokenProcessPool)")
        respawn()

    try:
        while ready or delayed or in_flight:
            if stop is not None and stop.is_set():
                state.interrupted = True
                return
            now = time.monotonic()
            if delayed:
                still = []
                for ready_at, index, attempt in delayed:
                    if ready_at <= now:
                        ready.append((index, attempt))
                    else:
                        still.append((ready_at, index, attempt))
                delayed[:] = still
            broken = False
            while ready and len(in_flight) < window:
                index, attempt = ready.popleft()
                try:
                    future = executor.submit(
                        _invoke, fn, chaos, state.tokens[index], attempt,
                        items[index],
                    )
                except BrokenProcessPool:
                    ready.appendleft((index, attempt))
                    state.counters["worker_crashes"] += 1
                    broken = True
                    break
                in_flight[future] = (index, attempt, time.monotonic())
            if broken:
                handle_broken()
                continue
            if not in_flight:
                if delayed:  # everything outstanding is backing off
                    time.sleep(max(0.0, min(e[0] for e in delayed) - now))
                continue
            done, _ = wait(in_flight, timeout=0.1, return_when=FIRST_COMPLETED)
            for future in done:
                index, attempt, _submitted = in_flight.pop(future)
                try:
                    value = future.result()
                except BrokenProcessPool:
                    # put it back: handle_broken() triages every casualty of
                    # the broken pool at once (chaos-predicted culprits are
                    # charged, innocents resubmit at the same attempt).
                    broken = True
                    state.counters["worker_crashes"] += 1
                    in_flight[future] = (index, attempt, _submitted)
                except Exception as exc:
                    requeue(index, attempt, "error",
                            f"{type(exc).__name__}: {exc}")
                else:
                    if isinstance(value, CorruptPayload):
                        state.counters["corrupt_payloads"] += 1
                        requeue(index, attempt, "corrupt",
                                "worker returned a corrupted payload")
                    else:
                        state.deliver(index, value)
            if broken:
                handle_broken()
                continue
            if timeout is not None and in_flight:
                now = time.monotonic()
                expired = [
                    (future, meta)
                    for future, meta in in_flight.items()
                    if now - meta[2] > timeout
                ]
                if expired:
                    for future, (index, attempt, _submitted) in expired:
                        del in_flight[future]
                        state.counters["timeouts"] += 1
                        requeue(index, attempt, "timeout",
                                f"unit exceeded the {timeout:g}s wall-clock timeout")
                    # Innocent bystanders die with the pool: resubmit them at
                    # the same attempt (their chaos schedule replays, which is
                    # safe — a replayed stall will time out and be charged).
                    for _future, (index, attempt, _submitted) in list(in_flight.items()):
                        ready.append((index, attempt))
                    in_flight.clear()
                    respawn()
    finally:
        if in_flight:
            _kill_pool(executor)
        else:
            executor.shutdown(wait=False)
