"""The Monte-Carlo campaign runner of the online runtime.

One executor runs every campaign of the package: a list of ``(spec, seed)``
campaigns is probed against the result cache, the missed campaigns unroll
into their individual trials, and all those trials share one supervised pool
(:func:`repro.resilience.supervised_map`).  :func:`run_runtime_campaign` is
the one-campaign call of that executor; :func:`repro.experiments.sweep.
run_suite` hands it every grid point of a suite at once.

Determinism is non-negotiable: every trial receives its own child seed
derived *before* dispatch from its campaign seed
(:func:`campaign_trial_seeds`), and the results are collected in submission
order, so ``jobs=1`` and ``jobs=N`` produce bit-for-bit identical results.

Campaigns that only need statistics can run with ``reduce="stats"``: the
worker summarizes each trace to a :class:`~repro.runtime.trace.TraceSummary`
*before* shipping it back, so a cacheless sweep transfers a few floats per
trial instead of megabytes of trace pickles — with
:meth:`RuntimeCampaignResult.stats` equal to the ``reduce="traces"`` value by
construction (see :func:`repro.runtime.trace.combine_summaries`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.runtime.montecarlo import run_trial, run_trial_summary
from repro.runtime.trace import (
    RuntimeStats,
    RuntimeTrace,
    TraceSummary,
    combine_summaries,
    summarize_traces,
)
from repro.scenario.spec import ScenarioSpec
from repro.utils.rng import derive_seed, ensure_rng

__all__ = [
    "REDUCTIONS",
    "check_reduce",
    "campaign_trial_seeds",
    "RuntimeCampaignResult",
    "run_runtime_campaign",
]

#: worker-side reductions of a campaign: ship full traces, or summarize each
#: trace to a TraceSummary inside the worker (identical statistics, a tiny
#: fraction of the inter-process transfer).
REDUCTIONS = ("traces", "stats")


def campaign_trial_seeds(seed: int, trials: int) -> tuple[int, ...]:
    """The per-trial child seeds of one campaign, derived up front from *seed*.

    One formula for every runner (the campaign itself, the suite executor's
    flattened trials×points fan-out): trial ``k`` of a campaign seeded *s* is
    a pure function of ``(s, k)``, which is what makes any regrouping of the
    work across processes bit-identical.
    """
    rng = ensure_rng(seed)
    return tuple(derive_seed(rng) for _ in range(trials))


def check_reduce(reduce: str) -> str:
    """Validate a ``reduce=`` argument (shared by runners, Session and CLI)."""
    if reduce not in REDUCTIONS:
        raise ValueError(f"reduce must be one of {REDUCTIONS}, got {reduce!r}")
    return reduce


@dataclass(frozen=True)
class RuntimeCampaignResult:
    """Outcome of a Monte-Carlo campaign of online-runtime trials.

    Exactly one of *traces* / *summaries* is set, according to *reduce*:
    ``"traces"`` keeps every trial's full :class:`~repro.runtime.trace.
    RuntimeTrace`, ``"stats"`` keeps only the per-trial
    :class:`~repro.runtime.trace.TraceSummary` produced inside the worker
    processes.  :attr:`stats` is identical either way.
    """

    spec: ScenarioSpec
    seed: int
    trial_seeds: tuple[int, ...]
    traces: tuple[RuntimeTrace, ...] | None
    summaries: tuple[TraceSummary, ...] | None = None

    def __post_init__(self) -> None:
        if (self.traces is None) == (self.summaries is None):
            raise ValueError(
                "exactly one of traces/summaries must be set "
                "(reduce='traces' keeps traces, reduce='stats' keeps summaries)"
            )

    @property
    def reduce(self) -> str:
        """The worker-side reduction this campaign ran with."""
        return "traces" if self.traces is not None else "stats"

    @property
    def trials(self) -> int:
        payload = self.traces if self.traces is not None else self.summaries
        return len(payload)

    @property
    def stats(self) -> RuntimeStats:
        """Aggregate statistics over the trials (identical for both modes)."""
        if self.summaries is not None:
            return combine_summaries(self.summaries)
        return summarize_traces(self.traces)


def run_runtime_campaign(
    spec: ScenarioSpec,
    trials: int = 20,
    seed: int = 0,
    jobs: int | None = 1,
    cache=None,
    reduce: str = "traces",
    *,
    max_retries: int = 2,
    trial_timeout: float | None = None,
    resume: bool = False,
    chaos=None,
    stop=None,
) -> RuntimeCampaignResult:
    """Run *trials* independent online-runtime trials of *spec*, *jobs* at a time.

    The child seeds are drawn up-front from *seed*, so the campaign result is
    identical for any value of *jobs* and any machine; two campaigns with the
    same ``(spec, trials, seed)`` produce equal traces.  A campaign is a suite
    with zero axes: :func:`repro.experiments.sweep.run_suite` runs its points
    through the same executor.

    That purity is what *cache* exploits: a cache object from
    :mod:`repro.cache` (or a directory path) serves the whole campaign from
    its content address when the identical ``(spec, seed, trials, reduce)``
    ran before on this code version — bit-identical to re-executing — and
    stores fresh results for next time.

    *reduce* selects the worker payload: ``"traces"`` (default) ships every
    trial's full trace back to the parent, ``"stats"`` summarizes each trace
    to a :class:`~repro.runtime.trace.TraceSummary` inside the worker — same
    :attr:`~RuntimeCampaignResult.stats`, a small fraction of the transfer
    (and of the cache entry).  The reduction is part of the cache key, so the
    two modes never serve each other's entries.

    Execution runs under the supervised pool of
    :mod:`repro.resilience.supervisor`: a dead worker respawns the pool and
    only the lost trials are retried (*max_retries* times each, exponential
    backoff), *trial_timeout* kills a stuck worker's unit after that many
    wall-clock seconds, and *chaos* (a
    :class:`~repro.resilience.chaos.ChaosSpec` or spec string, also
    activatable via ``$REPRO_CHAOS``) injects seeded failures for testing the
    above.  Because trial seeds are pre-derived, a recovered campaign is
    bit-identical to an undisturbed one.  A campaign has no partial shape to
    degrade into, so retry exhaustion raises
    :class:`~repro.resilience.supervisor.ExecutionError` and a drain raises
    :class:`~repro.resilience.supervisor.ExecutionInterrupted` (suites
    instead annotate the failed point).

    *resume* opts into trial-level checkpointing: each completed trial is
    written to the cache under its own :func:`~repro.cache.keys.trial_key` as
    it lands, and a later run of the same campaign (even with a *larger*
    ``trials`` value) executes only the missing trials.  Off by default —
    checkpoint probes and writes change the cache traffic of a run, and a
    full-campaign entry already serves the common case.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    check_reduce(reduce)
    from repro.cache import open_cache
    from repro.resilience import ExecutionError, resolve_chaos
    from repro.resilience.supervisor import ExecutionInterrupted

    cache = open_cache(cache)
    chaos = resolve_chaos(chaos)
    run = _execute_campaigns(
        [(spec, seed)], trials, jobs, cache, reduce,
        max_retries=max_retries, trial_timeout=trial_timeout, resume=resume,
        chaos=chaos, stop=stop,
    )
    if run.outcome.failures:
        raise ExecutionError(run.outcome.failures, what=f"campaign (seed {seed})")
    if run.outcome.interrupted:
        raise ExecutionInterrupted(
            f"campaign (seed {seed})", resumable=resume and cache.enabled
        )
    return run.results[0]


def _run_trial_unit(item: tuple[ScenarioSpec, int], reduce: str):
    """Execute one (campaign, trial) unit — the picklable unit of campaign work.

    With ``reduce="stats"`` the trace never leaves the worker — only its
    :class:`~repro.runtime.trace.TraceSummary` does.
    """
    spec, trial_seed = item
    if reduce == "stats":
        return run_trial_summary(spec, trial_seed)
    return run_trial(spec, trial_seed)


@dataclass(frozen=True)
class _CampaignRun:
    """What :func:`_execute_campaigns` delivers, campaign by campaign."""

    #: the campaign result, or ``None`` where trials were lost or drained.
    results: list
    #: whether each campaign was served whole from the result cache.
    cached: list
    #: campaign index -> why that campaign has no result.
    notes: dict
    #: the supervised map over every executed trial of the batch.
    outcome: "SupervisedOutcome"  # noqa: F821 - imported lazily
    resumed_trials: int
    executed_trials: int


def _execute_campaigns(
    campaigns: list[tuple[ScenarioSpec, int]],
    trials: int,
    jobs: int | None,
    cache,
    reduce: str,
    *,
    max_retries: int,
    trial_timeout: float | None,
    resume: bool,
    chaos,
    stop,
) -> _CampaignRun:
    """Run *trials* trials of every ``(spec, seed)`` campaign over one pool.

    *cache* is an opened cache object and *chaos* a resolved chaos spec (or
    ``None``).  Every campaign is first probed in *cache* under
    its :func:`~repro.cache.keys.campaign_key`; the missed ones unroll into
    their trials — minus the trials already checkpointed when *resume* is on —
    and all those (campaign, trial) units share one supervised pool, so
    workers stay busy even when there are fewer campaigns than workers, and
    each unit's return payload is one trace (or one summary), never a whole
    campaign pickle.  Completed campaigns are written back from the parent.
    """
    from repro.cache import MISS, campaign_key, trial_key
    from repro.resilience import supervised_map
    from repro.resilience.supervisor import RetryPolicy

    # with caching off there is nothing to address: skip the hashing and the
    # probe loop entirely so a cacheless run carries all-zero stats.
    keys = [
        campaign_key(spec, seed, trials, reduce=reduce) if cache.enabled else None
        for spec, seed in campaigns
    ]
    results = [
        MISS if key is None else cache.get(key, expect=RuntimeCampaignResult)
        for key in keys
    ]
    cached = [result is not MISS for result in results]
    missed = [i for i, hit in enumerate(cached) if not hit]
    trial_seeds = {i: campaign_trial_seeds(campaigns[i][1], trials) for i in missed}
    # resume: trials already checkpointed by an interrupted run (or by a
    # smaller-trials run — trial keys ignore the campaign's total count) are
    # served from the cache; only the missing ones become work units.
    done = {
        i: _probe_trial_checkpoints(cache, *campaigns[i], range(trials), reduce, resume)
        for i in missed
    }
    resumed_trials = sum(len(found) for found in done.values())
    units = [(i, t) for i in missed for t in range(trials) if t not in done[i]]

    def checkpoint(slot: int, value) -> None:
        i, t = units[slot]
        spec, seed = campaigns[i]
        cache.put(trial_key(spec, seed, t, reduce=reduce), value)

    outcome = supervised_map(
        partial(_run_trial_unit, reduce=reduce),
        [(campaigns[i][0], trial_seeds[i][t]) for i, t in units],
        jobs=jobs,
        tokens=[trial_seeds[i][t] for i, t in units],
        policy=RetryPolicy(max_retries=max_retries),
        timeout=trial_timeout,
        chaos=chaos,
        on_result=checkpoint if (resume and cache.enabled) else None,
        stop=stop,
    )
    failed_slots = {f.index: f for f in outcome.failures}
    lost: dict[int, list[str]] = {i: [] for i in missed}
    executed_trials = 0
    for slot, (i, t) in enumerate(units):
        failure = failed_slots.get(slot)
        if failure is not None:
            lost[i].append(f"trial {t} {failure.kind}: {failure.error}")
        elif outcome.values[slot] is not None:
            done[i][t] = outcome.values[slot]
            executed_trials += 1
    notes: dict[int, str] = {}
    for i in missed:
        values = done[i]
        if len(values) < trials:
            results[i] = None
            notes[i] = (
                f"{trials - len(values)} of {trials} trials lost after retry "
                f"exhaustion ({'; '.join(lost[i][:2])})"
                if lost[i]
                else f"interrupted with {len(values)} of {trials} trials done"
            )
            continue
        payload = tuple(values[t] for t in range(trials))
        spec, seed = campaigns[i]
        results[i] = RuntimeCampaignResult(
            spec=spec,
            seed=seed,
            trial_seeds=trial_seeds[i],
            traces=payload if reduce == "traces" else None,
            summaries=payload if reduce == "stats" else None,
        )
        if keys[i] is not None:
            cache.put(keys[i], results[i])
    return _CampaignRun(
        results=results,
        cached=cached,
        notes=notes,
        outcome=outcome,
        resumed_trials=resumed_trials,
        executed_trials=executed_trials,
    )


def _probe_trial_checkpoints(
    cache, spec, seed: int, trial_indices, reduce: str, resume: bool
) -> dict[int, object]:
    """The already-checkpointed trials of a campaign: ``{trial index: value}``.

    Empty unless *resume* is on and the cache is real — per-trial probes are
    extra cache traffic, and runs that did not opt in must keep their exact
    historical hit/miss accounting.
    """
    if not resume or not cache.enabled:
        return {}
    from repro.cache import MISS, trial_key

    expect = TraceSummary if reduce == "stats" else RuntimeTrace
    found: dict[int, object] = {}
    for t in trial_indices:
        value = cache.get(trial_key(spec, seed, t, reduce=reduce), expect=expect)
        if value is not MISS:
            found[t] = value
    return found
