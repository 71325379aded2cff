"""Frozen campaign corpus: every campaign front end, bit for bit.

Each case below drives one campaign runner and records what it produced:

* ``run_runtime_campaign`` with one and two worker processes and two
  campaign seeds — the trial seeds and, per trial, the ``repr`` of its
  :class:`~repro.runtime.trace.TraceSummary`;
* a ``resume=True`` campaign over a temporary cache, run with two trials and
  then resumed to three, with the cache traffic of both runs;
* ``run_suite`` on the smoke form of ``examples/suite.json`` (cold, then warm
  from a temporary cache) and on a zero-axis suite — the point seeds, every
  point's trial seeds and trial payloads, the report rows and the run's
  accounting;
* ``ablation_rules``, ``baseline_comparison`` and ``figure3a`` on a one-graph
  configuration, serially and over two workers — every series value;
* ``scaling_study``, whose series are wall-clock timings: only their shape.

Floats enter through ``repr``.  Cache keys are left out, because they embed
the digest of the source tree.  Regenerate the goldens only for an intended
change of campaign behaviour::

    PYTHONPATH=src python tests/unit/test_campaign_corpus.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from repro.cache import open_cache
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import (
    ablation_rules,
    baseline_comparison,
    figure3a,
    scaling_study,
)
from repro.experiments.parallel import run_runtime_campaign
from repro.experiments.sweep import run_suite
from repro.scenario import ScenarioSpec, SuiteSpec

ROOT = Path(__file__).resolve().parents[2]
GOLDEN_PATH = ROOT / "tests" / "golden" / "campaign_fingerprints.json"

SPEC = ScenarioSpec.from_dict(
    {
        "name": "campaign-corpus",
        "workload": {"num_tasks": 12, "num_processors": 6},
        "scheduler": {"epsilon": 1},
        "faults": {"mttf_periods": 40.0, "mttr_periods": 20.0},
        "runtime": {"num_datasets": 30, "admission": "queue"},
    }
)

TINY = ExperimentConfig(
    granularities=(0.5, 1.5),
    num_graphs=1,
    num_processors=10,
    task_range=(20, 25),
    crash_samples=2,
    seed=1,
)


def _payload_digest(summaries) -> str:
    """sha256 over the trial summaries of a campaign, in trial order."""
    digest = hashlib.sha256()
    for summary in summaries:
        digest.update(f"{summary!r}\n".encode())
    return digest.hexdigest()


def _campaign(result) -> dict:
    return {
        "trial_seeds": list(result.trial_seeds),
        "trials": _payload_digest(result.summaries),
        "stats": hashlib.sha256(repr(result.stats).encode()).hexdigest(),
    }


def _cache_traffic(stats) -> dict:
    return {
        "hits": stats.hits,
        "misses": stats.misses,
        "writes": stats.writes,
        "errors": stats.errors,
    }


def _suite(result) -> dict:
    return {
        "point_seeds": [point.seed for point in result.points],
        "points": [
            None if point.failed else _campaign(point.campaign)
            for point in result.points
        ],
        "rows": hashlib.sha256(repr(result.as_rows()).encode()).hexdigest(),
        "failures": result.failures,
        "cached": result.cached_count,
        "executed_trials": result.executed_trials,
        "resumed_trials": result.resumed_trials,
        "cache": _cache_traffic(result.cache_stats),
    }


def _series(series) -> dict:
    return {
        "name": series.name,
        "x": repr(series.x),
        "series": hashlib.sha256(repr(sorted(series.series.items())).encode()).hexdigest(),
    }


def corpus() -> dict[str, dict]:
    """Case name -> recorded outputs for the whole frozen corpus."""
    produced: dict[str, dict] = {}
    for jobs in (1, 2):
        for seed in (0, 7):
            result = run_runtime_campaign(SPEC, trials=3, seed=seed, jobs=jobs)
            produced[f"campaign/stats/jobs{jobs}/seed{seed}"] = _campaign(result)

    with tempfile.TemporaryDirectory() as root:
        cache = open_cache(root)
        first = run_runtime_campaign(SPEC, trials=2, seed=3, cache=cache, resume=True)
        after_first = _cache_traffic(cache.stats.snapshot())
        resumed = run_runtime_campaign(SPEC, trials=3, seed=3, cache=cache, resume=True)
        produced["campaign/resume"] = {
            "first": _campaign(first),
            "first_cache": after_first,
            "resumed": _campaign(resumed),
            "resumed_cache": _cache_traffic(cache.stats),
        }

    smoke = SuiteSpec.from_file(ROOT / "examples" / "suite.json").smoke()
    with tempfile.TemporaryDirectory() as root:
        cache = open_cache(root)
        produced["suite/smoke/cold"] = _suite(run_suite(smoke, cache=cache))
        produced["suite/smoke/warm"] = _suite(run_suite(smoke, cache=cache))
    produced["suite/smoke/jobs2"] = _suite(run_suite(smoke, jobs=2))
    zero = SuiteSpec(base=SPEC, axes={}, name="zero-axis", trials=3, seed=5)
    produced["suite/zero-axis"] = _suite(run_suite(zero))

    for jobs in (1, 2):
        produced[f"figures/ablation_rules/jobs{jobs}"] = _series(
            ablation_rules(TINY, jobs=jobs)
        )
        produced[f"figures/baseline_comparison/jobs{jobs}"] = _series(
            baseline_comparison(TINY, jobs=jobs)
        )
        produced[f"figures/figure3a/jobs{jobs}"] = _series(figure3a(TINY, jobs=jobs))
    scaling = scaling_study(sizes=(10, 20), config=TINY, jobs=2)
    produced["figures/scaling_study/shape"] = {
        "x": repr(scaling.x),
        "series": {name: len(values) for name, values in scaling.series.items()},
    }
    return produced


def test_campaign_corpus_matches_frozen_fingerprints():
    goldens = json.loads(GOLDEN_PATH.read_text())
    produced = json.loads(json.dumps(corpus()))  # JSON-normalized, like the file
    assert sorted(produced) == sorted(goldens)
    changed = sorted(k for k in goldens if produced[k] != goldens[k])
    assert not changed, f"{len(changed)} campaign cases changed, e.g. {changed[:5]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_campaign_corpus.py --write")
    GOLDEN_PATH.write_text(json.dumps(corpus(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
