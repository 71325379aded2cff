#!/usr/bin/env python3
"""Quickstart: one declarative scenario, every front end.

The script defines a scenario of the paper's experimental family once — as a
:class:`repro.ScenarioSpec` — and drives the whole stack through the
:class:`repro.Session` facade: build the LTF and R-LTF schedules under the
same throughput and fault-tolerance constraints, compare the metrics the
paper compares, then sanity-check the analytic latency model against the
discrete-event simulator.

The same spec serializes to JSON (``spec.to_json()``) and back, so anything
printed here is reproducible from a scenario file:
``repro-streaming run scenario.json --mode schedule``.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import ScenarioSpec, Session
from repro.utils.ascii import format_table


def main() -> None:
    # One spec, declared once.  workload.seed pins the workload (the run seed
    # would otherwise derive a fresh one per run), epsilon tolerates one
    # processor failure through active replication.
    base = ScenarioSpec.from_dict(
        {
            "name": "quickstart",
            "workload": {"granularity": 1.0, "num_tasks": None, "seed": 42},
            "scheduler": {"name": "rltf", "epsilon": 1, "fallback": False},
        }
    )
    session = Session(base)
    workload = session.workload()
    print(f"scenario: {base.describe()}")
    print(f"workload: {workload.graph}")
    print(f"platform: {workload.platform}")
    print()

    # The scheduler is an axis like any other: expand the spec into one
    # scenario per heuristic (the fault-free ε=0 reference rides along).
    rows = []
    for spec in base.grid({"scheduler.name": ["ltf", "rltf"]}) + [
        base.updated({"scheduler.name": "fault-free", "scheduler.epsilon": 0})
    ]:
        result = Session(spec).schedule()
        summary = result.summary()
        rows.append(
            [
                summary["algorithm"],
                summary["epsilon"],
                summary["stages"],
                f"{summary['latency upper bound']:.1f}",
                f"{summary['period']:.1f}",
                summary["used processors"],
            ]
        )
    print(
        format_table(
            ["algorithm", "ε", "stages", "latency bound", "period Δ", "procs"],
            rows,
            title="LTF vs R-LTF vs fault-free reference",
        )
    )
    print()

    # Same spec, third front end: stream 20 data sets through one crash-free
    # engine run and check the analytic model L = (2S-1)·Δ from the outside.
    simulated = session.simulate(num_datasets=20)
    print(format_table(["metric", "value"], simulated.as_rows(), title="simulation"))


if __name__ == "__main__":
    main()
