"""The paper's figure-level claims, checked on frozen paper-scale series.

``tests/golden/paper_figures.json`` holds the six panels of Figures 3 and 4
(3a, 3b, 3c at ε=1 and 4a, 4b, 4c at ε=3) computed at ``paper_config()``
(60 graphs per granularity, seed 2009), with ``repr(paper_config())`` beside
them so that an edit of the paper preset without a regeneration fails here.
The series are analytic and do not depend on the number of workers.

The tests read the frozen series only, so they run in milliseconds:

* every latency series of 3a, 3b, 4a and 4b falls strictly as the
  granularity grows;
* R-LTF's latency is at or below LTF's at every point of every latency
  series, except at exactly the points of :data:`RLTF_ABOVE_LTF` — the
  places where this reproduction departs from the paper, listed so that a
  fix or a new break shows up;
* at ε=1 every overhead curve ends below where it starts.

Regenerating takes minutes (about 7 on two workers). Do it after an
intended change of the schedulers or of the paper preset::

    PYTHONPATH=src python tests/unit/test_paper_figures.py --write
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from repro.experiments.config import paper_config
from repro.experiments.figures import (
    figure3a,
    figure3b,
    figure3c,
    figure4a,
    figure4b,
    figure4c,
)

ROOT = Path(__file__).resolve().parents[2]
GOLDEN_PATH = ROOT / "tests" / "golden" / "paper_figures.json"

PANELS = (figure3a, figure3b, figure3c, figure4a, figure4b, figure4c)
LATENCY_PANELS = {1: ("figure3a", "figure3b"), 3: ("figure4a", "figure4b")}

#: ε -> the (curve, granularity) points where R-LTF's latency is above LTF's.
RLTF_ABOVE_LTF = {
    1: set(),
    3: {
        ("With 0 Crash", 0.2),
        ("With 0 Crash", 0.4),
        ("With 0 Crash", 0.6),
        ("UpperBound", 1.6),
    },
}


def panels(jobs: int | None) -> dict:
    """The golden document: the paper preset and its six panels.

    The panels share one fresh result cache, so the six panels compute two
    campaigns (one per ε) and nothing is read from an earlier run.
    """
    config = paper_config()
    document: dict = {"config": repr(config)}
    with tempfile.TemporaryDirectory() as cache:
        for figure in PANELS:
            panel = figure(config, jobs=jobs, cache=cache)
            document[panel.name] = {
                "x": list(panel.x),
                "series": {label: list(values) for label, values in panel.series.items()},
            }
    return document


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def _latency_curves(golden: dict, epsilon: int) -> tuple[list[float], dict[str, list[float]]]:
    """The granularity axis and the distinct latency curves of one ε."""
    first, second = LATENCY_PANELS[epsilon]
    assert golden[first]["x"] == golden[second]["x"]
    curves: dict[str, list[float]] = {}
    for name in (first, second):
        for label, values in golden[name]["series"].items():
            assert curves.setdefault(label, values) == values, label
    return golden[first]["x"], curves


def test_golden_is_the_paper_preset(golden):
    assert golden["config"] == repr(paper_config())
    assert sorted(golden) == sorted(["config", *(f.__name__ for f in PANELS)])
    for figure in PANELS:
        panel = golden[figure.__name__]
        assert panel["x"] == list(paper_config().granularities)
        for values in panel["series"].values():
            assert len(values) == len(panel["x"])


@pytest.mark.parametrize("epsilon", sorted(LATENCY_PANELS))
def test_latency_falls_at_every_granularity_step(golden, epsilon):
    _x, curves = _latency_curves(golden, epsilon)
    assert len(curves) == 6
    for label, values in curves.items():
        steps = list(zip(values, values[1:]))
        assert all(after < before for before, after in steps), (epsilon, label, values)


@pytest.mark.parametrize("epsilon", sorted(RLTF_ABOVE_LTF))
def test_rltf_is_at_or_below_ltf_except_the_recorded_points(golden, epsilon):
    x, curves = _latency_curves(golden, epsilon)
    above = set()
    for label, rltf in curves.items():
        if not label.startswith("R-LTF "):
            continue
        curve = label.removeprefix("R-LTF ")
        ltf = curves[f"LTF {curve}"]
        above.update((curve, g) for g, r, l in zip(x, rltf, ltf) if r > l)
    assert above == RLTF_ABOVE_LTF[epsilon]


def test_overhead_falls_as_a_trend_at_epsilon_1(golden):
    for label, values in golden["figure3c"]["series"].items():
        assert values[-1] < values[0], (label, values)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_paper_figures.py --write")
    document = panels(jobs=os.cpu_count())
    GOLDEN_PATH.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
