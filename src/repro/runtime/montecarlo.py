"""One Monte-Carlo trial of the online runtime.

A trial is a pure, picklable function of ``(spec, seed)`` — the campaign
runner (:mod:`repro.experiments.parallel`) fans trials out across processes
and the result must not depend on how many workers ran them.  Each trial
derives two child seeds from its own seed (workload, fault trace), so trials
are mutually independent and individually reproducible.  The execution path
itself is :func:`repro.scenario.run.run_scenario_online`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.runtime.trace import RuntimeTrace, TraceSummary, summarize_trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.scenario.spec import ScenarioSpec

__all__ = ["run_trial", "run_trial_summary"]


def run_trial(spec: "ScenarioSpec", seed: int) -> RuntimeTrace:
    """Run one seeded trial: workload → schedule → fault trace → online run.

    Deterministic: the trace only depends on ``(spec, seed)``.  Runs through
    :func:`repro.scenario.run.run_scenario_online`, the single execution path
    shared with the :class:`~repro.api.Session` facade.
    """
    from repro.scenario.run import run_scenario_online

    return run_scenario_online(spec, seed)


def run_trial_summary(spec: "ScenarioSpec", seed: int) -> TraceSummary:
    """One seeded trial reduced to its :class:`~repro.runtime.trace.
    TraceSummary` — the ``reduce="stats"`` worker mode of the campaign engine.

    Running **and summarizing** inside the worker process means only a dozen
    floats cross the process boundary instead of the full trace pickle.  The
    summary is exactly ``summarize_trace(run_trial(spec, seed))``.
    """
    return summarize_trace(run_trial(spec, seed))
