"""Experiment harness reproducing the evaluation section of the paper.

* :mod:`repro.experiments.config` — the experimental parameters of Section 5
  (and the reduced preset of the figure and study commands);
* :mod:`repro.experiments.campaign` — runs one (granularity, ε) point over
  many random graphs and aggregates the metrics;
* :mod:`repro.experiments.figures` — one function per figure panel
  (3a, 3b, 3c, 4a, 4b, 4c) plus the ablation / baseline / scaling studies;
* :mod:`repro.experiments.tables` — the worked examples of Figures 1 and 2;
* :mod:`repro.experiments.reporting` — ASCII rendering of the results;
* :mod:`repro.experiments.parallel` — the Monte-Carlo campaign runner of
  the online runtime (one executor for single campaigns and suites,
  ``jobs``-way supervised fan-out, deterministic regardless of the worker
  count);
* :mod:`repro.experiments.sweep` — suite execution (:func:`run_suite`,
  :class:`SweepResult` with arbitrary-axis panel pivots, spec-hash result
  caching).
"""

from repro import _lazy_exports

# Loaded on first access: importing one submodule (the campaign runner, or
# ``config`` to resolve a spec's period) must not pull in the figure stack.
_EXPORTS = {
    "repro.experiments.config": (
        "ExperimentConfig", "bench_config", "paper_config", "workload_period",
    ),
    "repro.experiments.campaign": ("CampaignResult", "PointResult", "run_campaign"),
    "repro.experiments.figures": (
        "FigureSeries", "figure3a", "figure3b", "figure3c", "figure4a", "figure4b",
        "figure4c", "ablation_rules", "baseline_comparison", "scaling_study",
    ),
    "repro.experiments.tables": ("figure1_scenarios", "figure2_example"),
    "repro.experiments.reporting": ("render_series", "render_suite"),
    "repro.experiments.parallel": ("RuntimeCampaignResult", "run_runtime_campaign"),
    "repro.experiments.sweep": ("SuitePointResult", "SweepResult", "run_suite"),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [name for names in _EXPORTS.values() for name in names]
