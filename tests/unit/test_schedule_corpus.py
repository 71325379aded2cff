"""Frozen schedule corpus: LTF, R-LTF and the forward rebuild, bit for bit.

Every case below builds one schedule from a seeded paper workload and hashes
everything the heuristics decide: each replica's processor, start and finish
(in placement order), each committed communication and ``schedule.stats``.
An infeasible case hashes its error type and message instead.  Floats enter
the hash through ``repr``, so the fingerprint is a bit-identity witness: a
change to the planning layers that moves any start time by one ulp fails it.

The goldens in ``tests/golden/schedule_fingerprints.json`` were generated on
the code *before* the scheduler hot-path work (scratch timeline overlays,
cost memo tables, per-decision plan reuse), so they pin that work as
behaviour-preserving.  Regenerate them only for an intended change of the
schedules::

    PYTHONPATH=src python tests/unit/test_schedule_corpus.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro.core.ltf import ltf_schedule
from repro.core.rltf import rltf_schedule
from repro.exceptions import SchedulingError
from repro.experiments.config import ExperimentConfig, workload_period
from repro.graph.generator import random_paper_workload
from repro.runtime.policies import RemapReschedulePolicy

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "golden" / "schedule_fingerprints.json"

SCHEDULERS = {"ltf": ltf_schedule, "rltf": rltf_schedule}
#: seed -> granularity: one communication-heavy and one compute-heavy workload.
GRANULARITY = {0: 0.5, 1: 1.5}
PROCESSORS = 10


def schedule_fingerprint(schedule) -> str:
    """sha256 over the mapping, timing, communications and stats of *schedule*."""
    digest = hashlib.sha256()
    digest.update(
        f"{schedule.algorithm}|{schedule.period!r}|{schedule.epsilon}\n".encode()
    )
    for replica in schedule.all_replicas():
        digest.update(
            f"R {replica!r} {schedule.processor_of(replica)} "
            f"{schedule.start_time(replica)!r} {schedule.finish_time(replica)!r}\n".encode()
        )
    for event in schedule.comm_events:
        digest.update(
            f"C {event.source!r} {event.destination!r} {event.volume!r} "
            f"{event.start!r} {event.duration!r}\n".encode()
        )
    digest.update(f"S {sorted(schedule.stats.items())!r}\n".encode())
    return digest.hexdigest()


def _outcome(build) -> str:
    try:
        return schedule_fingerprint(build())
    except SchedulingError as exc:
        return f"{type(exc).__name__}: {exc}"


def _workload(num_tasks: int, seed: int):
    return random_paper_workload(
        GRANULARITY[seed], seed=seed, num_tasks=num_tasks, num_processors=PROCESSORS
    )


def _period(workload, epsilon: int, slack: float) -> float:
    return workload_period(workload, epsilon, ExperimentConfig(period_slack=slack))


def corpus() -> dict[str, str]:
    """Case name -> fingerprint (or error) for the whole frozen corpus."""
    produced: dict[str, str] = {}
    # the main grid: both heuristics x eps x size x period slack x seed
    for num_tasks in (20, 30, 100):
        for seed in GRANULARITY:
            workload = _workload(num_tasks, seed)
            for epsilon in (0, 1, 2):
                for slack in (1.2, 2.0):
                    period = _period(workload, epsilon, slack)
                    for name, build in SCHEDULERS.items():
                        key = f"{name}/n{num_tasks}/eps{epsilon}/slack{slack}/seed{seed}"
                        produced[key] = _outcome(
                            lambda: build(
                                workload.graph, workload.platform,
                                period=period, epsilon=epsilon,
                            )
                        )
    # option variants on the default-spec size
    variants = {
        "strict_resilience": dict(strict_resilience=True),
        "relaxed_throughput": dict(strict_throughput=False),
        "chunk1": dict(chunk_size=1),
    }
    for seed in GRANULARITY:
        workload = _workload(30, seed)
        for epsilon in (1, 2):
            # slack 1.0 is the tightest period: some strict runs fail there,
            # and a relaxed run takes a least-loaded placement
            for slack in (1.0, 1.2, 2.0):
                period = _period(workload, epsilon, slack)
                for variant, options in variants.items():
                    for name, build in SCHEDULERS.items():
                        key = f"{name}/{variant}/eps{epsilon}/slack{slack}/seed{seed}"
                        produced[key] = _outcome(
                            lambda: build(
                                workload.graph, workload.platform,
                                period=period, epsilon=epsilon, **options,
                            )
                        )
    # build_forward_schedule through the remap reschedule policy: the
    # survivors keep their replicas, the dead processors' ones are refilled
    for seed in GRANULARITY:
        workload = _workload(30, seed)
        period = _period(workload, 2, 2.0)
        previous = rltf_schedule(workload.graph, workload.platform, period=period, epsilon=2)
        used = previous.used_processors()
        for dead in (used[:1], used[:2]):
            survivors = workload.platform.subset(
                p for p in workload.platform.processor_names if p not in dead
            )
            for epsilon in (1, 2):
                key = f"remap/dead{len(dead)}/eps{epsilon}/seed{seed}"
                produced[key] = _outcome(
                    lambda: RemapReschedulePolicy().reschedule(
                        workload.graph, survivors, period, epsilon, previous
                    )
                )
    return produced


def test_schedule_corpus_matches_frozen_fingerprints():
    goldens = json.loads(GOLDEN_PATH.read_text())
    produced = corpus()
    assert sorted(produced) == sorted(goldens)
    changed = sorted(k for k in goldens if produced[k] != goldens[k])
    assert not changed, f"{len(changed)} schedules changed, e.g. {changed[:5]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_schedule_corpus.py --write")
    GOLDEN_PATH.write_text(json.dumps(corpus(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
