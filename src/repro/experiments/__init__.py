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

from repro.experiments.config import ExperimentConfig, bench_config, paper_config, workload_period
from repro.experiments.campaign import CampaignResult, PointResult, run_campaign
from repro.experiments.figures import (
    FigureSeries,
    figure3a,
    figure3b,
    figure3c,
    figure4a,
    figure4b,
    figure4c,
    ablation_rules,
    baseline_comparison,
    scaling_study,
)
from repro.experiments.tables import figure1_scenarios, figure2_example
from repro.experiments.reporting import render_series, render_suite
from repro.experiments.parallel import (
    RuntimeCampaignResult,
    run_runtime_campaign,
)
from repro.experiments.sweep import (
    SuitePointResult,
    SweepResult,
    run_suite,
)

__all__ = [
    "ExperimentConfig",
    "bench_config",
    "paper_config",
    "workload_period",
    "CampaignResult",
    "PointResult",
    "run_campaign",
    "FigureSeries",
    "figure3a",
    "figure3b",
    "figure3c",
    "figure4a",
    "figure4b",
    "figure4c",
    "ablation_rules",
    "baseline_comparison",
    "scaling_study",
    "figure1_scenarios",
    "figure2_example",
    "render_series",
    "render_suite",
    "RuntimeCampaignResult",
    "run_runtime_campaign",
    "SuitePointResult",
    "SweepResult",
    "run_suite",
]
