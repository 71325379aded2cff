"""The campaign executor, and the Monte-Carlo campaign of the online runtime.

One executor runs every campaign of the package: a list of ``(spec, seed)``
campaigns is probed against the result cache, the missed campaigns unroll
into their individual trials, and all those trials share one supervised pool
(:func:`repro.resilience.supervised_map`).  :func:`run_runtime_campaign` is
the one-campaign call of that executor; :func:`repro.experiments.sweep.
run_suite` hands it every grid point of a suite at once, and
:func:`repro.experiments.campaign.run_campaign` every granularity point of a
figure, whose trials are its random graphs.

Determinism is non-negotiable: every trial receives its own child seed
derived *before* dispatch from its campaign seed
(:func:`campaign_trial_seeds`), and the results are collected in submission
order, so ``jobs=1`` and ``jobs=N`` produce bit-for-bit identical results.

Every trial is summarized inside its worker: the payload that crosses the
process boundary (and lands in the cache) is one
:class:`~repro.runtime.trace.TraceSummary` per trial, a few floats instead of
the full trace pickle, and :attr:`RuntimeCampaignResult.stats` combines them
(:func:`repro.runtime.trace.combine_summaries`).  Trial ``k``'s full trace is
one call away: ``Session(spec).run_online(seed=campaign.trial_seeds[k]).trace``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.trace import RuntimeStats, TraceSummary, combine_summaries, summarize_trace
from repro.scenario.run import run_scenario_online
from repro.scenario.spec import ScenarioSpec
from repro.utils.checks import check_count
from repro.utils.rng import derive_seed, ensure_rng

__all__ = [
    "campaign_trial_seeds",
    "RuntimeCampaignResult",
    "run_runtime_campaign",
]

def campaign_trial_seeds(seed: int, trials: int) -> tuple[int, ...]:
    """The per-trial child seeds of one campaign, derived up front from *seed*.

    One formula for every runner (the campaign itself, the suite executor's
    flattened trials×points fan-out): trial ``k`` of a campaign seeded *s* is
    a pure function of ``(s, k)``, which is what makes any regrouping of the
    work across processes bit-identical.
    """
    rng = ensure_rng(seed)
    return tuple(derive_seed(rng) for _ in range(trials))


@dataclass(frozen=True)
class RuntimeCampaignResult:
    """Outcome of a Monte-Carlo campaign of online-runtime trials.

    *summaries* holds one :class:`~repro.runtime.trace.TraceSummary` per
    trial, produced inside the worker processes, in trial order.
    """

    spec: ScenarioSpec
    seed: int
    trial_seeds: tuple[int, ...]
    summaries: tuple[TraceSummary, ...]

    @property
    def trials(self) -> int:
        return len(self.summaries)

    @property
    def stats(self) -> RuntimeStats:
        """Aggregate statistics over the trials."""
        return combine_summaries(self.summaries)


@dataclass(frozen=True)
class CampaignTrials:
    """The trial payloads of a campaign whose trials are not online runs.

    What the executor returns (and caches) for a campaign of the ``figure``
    kind: *values* holds one payload per trial, in trial order.
    """

    spec: object
    seed: int
    trial_seeds: tuple[int, ...]
    values: tuple


def run_runtime_campaign(
    spec: ScenarioSpec,
    trials: int = 20,
    seed: int = 0,
    jobs: int | None = 1,
    cache=None,
    reduce: str = "stats",
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
    same ``(spec, trials, seed)`` produce equal summaries.  A campaign is a suite
    with zero axes: :func:`repro.experiments.sweep.run_suite` runs its points
    through the same executor.

    That purity is what *cache* exploits: a cache object from
    :mod:`repro.cache` (or a directory path) serves the whole campaign from
    its content address when the identical ``(spec, seed, trials)`` ran
    before on this code version — bit-identical to re-executing — and stores
    fresh results for next time.

    Each worker ships back one :class:`~repro.runtime.trace.TraceSummary`
    per trial, never the trace itself.  Trial ``k``'s full trace is
    ``Session(spec).run_online(seed=campaign.trial_seeds[k]).trace``: the
    trial seeds are part of the result, and a trial is a pure function of its
    spec and seed.  *reduce* only accepts ``"stats"``, the one payload (the
    parameter stays so that callers passing it keep working).

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
    trials = check_count(trials, "trials")
    if reduce != "stats":
        raise ValueError(
            f"reduce must be 'stats' (every trial ships its summary), got {reduce!r}"
        )
    from repro.cache import open_cache
    from repro.resilience import ExecutionError, resolve_chaos
    from repro.resilience.supervisor import ExecutionInterrupted

    cache = open_cache(cache)
    chaos = resolve_chaos(chaos)
    run = _execute_campaigns(
        [(spec, seed)], trials, jobs, cache,
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


def _run_trial_unit(item: tuple[ScenarioSpec, int]) -> TraceSummary:
    """Execute one (campaign, trial) unit — the picklable unit of campaign work.

    The trace never leaves the worker — only its
    :class:`~repro.runtime.trace.TraceSummary` does.
    """
    spec, trial_seed = item
    return summarize_trace(run_scenario_online(spec, trial_seed))


#: campaign kind -> (campaign result type, trial payload type): the types the
#: cache must hold under that kind's keys, checked on every read.
_KINDS = {
    "runtime": (RuntimeCampaignResult, TraceSummary),
    "figure": (CampaignTrials, tuple),
}


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
    *,
    trial=_run_trial_unit,
    kind: str = "runtime",
    max_retries: int,
    trial_timeout: float | None,
    resume: bool,
    chaos,
    stop,
) -> _CampaignRun:
    """Run *trials* trials of every ``(spec, seed)`` campaign over one pool.

    *cache* is an opened cache object and *chaos* a resolved chaos spec (or
    ``None``).  Every campaign is first probed in *cache* under
    its :func:`~repro.cache.keys.campaign_key` of *kind*; the missed ones
    unroll into their trials — minus the trials already checkpointed when
    *resume* is on — and all those (campaign, trial) units share one
    supervised pool, so workers stay busy even when there are fewer campaigns
    than workers, and each unit's return payload is one trial's, never a
    whole campaign pickle.  Unit ``(spec, trial seed)`` runs
    ``trial((spec, trial_seed))``; the default is one online run of a
    scenario, summarized.  Completed campaigns are written back from the
    parent.
    """
    from repro.cache import MISS, campaign_key, trial_key
    from repro.resilience import supervised_map
    from repro.resilience.supervisor import RetryPolicy

    result_type, trial_type = _KINDS[kind]
    # with caching off there is nothing to address: skip the hashing and the
    # probe loop entirely so a cacheless run carries all-zero stats.
    keys = [
        campaign_key(spec, seed, trials, kind) if cache.enabled else None
        for spec, seed in campaigns
    ]
    results = [
        MISS if key is None else cache.get(key, expect=result_type)
        for key in keys
    ]
    cached = [result is not MISS for result in results]
    missed = [i for i, hit in enumerate(cached) if not hit]
    trial_seeds = {i: campaign_trial_seeds(campaigns[i][1], trials) for i in missed}
    # resume: trials already checkpointed by an interrupted run (or by a
    # smaller-trials run — trial keys ignore the campaign's total count) are
    # served from the cache; only the missing ones become work units.  Runs
    # that did not opt in make no per-trial probe, so their cache traffic
    # stays what it always was.
    done: dict[int, dict] = {i: {} for i in missed}
    if resume and cache.enabled:
        for i in missed:
            spec, seed = campaigns[i]
            for t in range(trials):
                value = cache.get(trial_key(spec, seed, t, kind), expect=trial_type)
                if value is not MISS:
                    done[i][t] = value
    resumed_trials = sum(len(found) for found in done.values())
    units = [(i, t) for i in missed for t in range(trials) if t not in done[i]]

    def checkpoint(slot: int, value) -> None:
        i, t = units[slot]
        spec, seed = campaigns[i]
        cache.put(trial_key(spec, seed, t, kind), value)

    outcome = supervised_map(
        trial,
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
        spec, seed = campaigns[i]
        results[i] = result_type(
            spec, seed, trial_seeds[i], tuple(values[t] for t in range(trials))
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

