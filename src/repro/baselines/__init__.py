"""Baseline heuristics from the related-work section (Section 3).

The paper positions LTF / R-LTF against the heuristics of the literature,
which all target homogeneous platforms, ignore communication-port contention
and do not handle failures.  This package implements faithful-in-spirit
versions of each of them so that the fault-free comparison (the
``baselines`` command) can be regenerated.  Every baseline
returns a regular :class:`~repro.schedule.schedule.Schedule` (``ε = 0``) built
with the same one-port substrate as LTF / R-LTF, so all metrics are directly
comparable.

* :func:`~repro.baselines.listsched.heft_schedule` — HEFT list scheduling [9];
* :func:`~repro.baselines.listsched.etf_schedule` — Earliest Task First [6];
* :func:`~repro.baselines.clustering.preclustering_schedule` — the
  communication-minimising pre-clustering of Hary & Özgüner [4];
* :func:`~repro.baselines.expert.expert_schedule` — the path-based stage
  grouping of EXPERT [3];
* :func:`~repro.baselines.tda.tda_schedule` — the ETF + top-down stage
  partitioning of TDA [11];
* :func:`~repro.baselines.wmsh.wmsh_schedule` — the cluster-merge-refine
  pipeline of WMSH [10];
* :func:`~repro.baselines.binary_search.minimal_period_schedule` — the binary
  search over the period of Hoang & Rabaey [5].
"""

from repro.baselines.listsched import heft_schedule, etf_schedule
from repro.baselines.clustering import preclustering_schedule
from repro.baselines.expert import expert_schedule
from repro.baselines.tda import tda_schedule
from repro.baselines.wmsh import wmsh_schedule
from repro.baselines.binary_search import minimal_period_schedule

__all__ = [
    "heft_schedule",
    "etf_schedule",
    "preclustering_schedule",
    "expert_schedule",
    "tda_schedule",
    "wmsh_schedule",
    "minimal_period_schedule",
    "BASELINES",
]

#: registry used by the benchmark harness.
BASELINES = {
    "heft": heft_schedule,
    "etf": etf_schedule,
    "preclustering": preclustering_schedule,
    "expert": expert_schedule,
    "tda": tda_schedule,
    "wmsh": wmsh_schedule,
}
