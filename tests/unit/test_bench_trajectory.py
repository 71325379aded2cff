"""The CI trajectory gate: headline, scheduler and steady-kernel rows, each on its own."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_trajectory.py"
_spec = importlib.util.spec_from_file_location("bench_trajectory", _PATH)
bench_trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_trajectory)


def _report(headline=1000.0, smoke=True, kernel=None, **builds):
    report = {
        "smoke": smoke,
        "long_stream": {"workload": "quiet"},
        "long_stream_datasets_per_sec": headline,
        "scheduler_builds": {
            tag: {"builds_per_sec": rate} for tag, rate in builds.items()
        },
    }
    if kernel is not None:
        report["kernel_steady"] = {
            tag: {"datasets_per_sec": rate, "events_per_sec": 100 * rate}
            for tag, rate in kernel.items()
        }
    return report


def _run(tmp_path, *reports):
    trajectory = tmp_path / "trajectory.json"
    codes = []
    for i, report in enumerate(reports):
        path = tmp_path / f"report{i}.json"
        path.write_text(json.dumps(report))
        codes.append(bench_trajectory.main([str(path), str(trajectory)]))
    return codes, json.loads(trajectory.read_text())


def test_scheduler_rows_are_recorded_per_tag(tmp_path):
    codes, points = _run(tmp_path, _report(**{"ltf-n30": 40.0, "rltf-n30": 20.0}))
    assert codes == [0]
    assert points[-1]["scheduler_builds"] == {"ltf-n30": 40.0, "rltf-n30": 20.0}


@pytest.mark.parametrize("rate, code", [(15.0, 0), (13.0, 1)])
def test_each_scheduler_row_gates_with_the_30_percent_band(tmp_path, rate, code):
    codes, _ = _run(
        tmp_path,
        _report(**{"ltf-n30": 40.0, "rltf-n30": 20.0}),
        _report(**{"ltf-n30": 40.0, "rltf-n30": rate}),
    )
    assert codes == [0, code]


@pytest.mark.parametrize("workload, code", [("quiet", 1), ("quiet-events", 0)])
def test_a_redefined_headline_workload_seeds_a_fresh_baseline(tmp_path, workload, code):
    """An 18x slower headline is a regression under the same workload tag
    and a fresh baseline under a new one."""
    redefined = _report(headline=1000.0 / 18)
    redefined["long_stream"]["workload"] = workload
    codes, _ = _run(tmp_path, _report(headline=1000.0), redefined)
    assert codes == [0, code]


def test_new_tags_and_other_modes_seed_instead_of_gating(tmp_path):
    codes, _ = _run(
        tmp_path,
        _report(**{"rltf-n30": 20.0}),
        _report(smoke=False, **{"rltf-n30": 1.0}),
        _report(**{"rltf-n30": 19.0, "rltf-n300": 0.1}),
    )
    assert codes == [0, 0, 0]


def test_headline_regression_still_fails(tmp_path):
    codes, _ = _run(tmp_path, _report(1000.0), _report(600.0))
    assert codes == [0, 1]


STEADY = "rltf-n30-eps1-seed2-steady"


def test_steady_kernel_row_is_recorded_per_tag(tmp_path):
    codes, points = _run(tmp_path, _report(kernel={STEADY: 5000.0}))
    assert codes == [0]
    assert points[-1]["kernel_steady"] == {STEADY: 5000.0}


@pytest.mark.parametrize("rate, code", [(3600.0, 0), (3400.0, 1)])
def test_steady_kernel_row_gates_with_the_30_percent_band(tmp_path, rate, code):
    codes, _ = _run(
        tmp_path,
        _report(kernel={STEADY: 5000.0}),
        _report(kernel={STEADY: rate}),
    )
    assert codes == [0, code]


def test_steady_kernel_row_seeds_on_a_new_tag_or_mode(tmp_path):
    codes, _ = _run(
        tmp_path,
        _report(kernel={STEADY: 5000.0}),
        _report(smoke=False, kernel={STEADY: 100.0}),
        _report(kernel={"other-steady": 1.0}),
    )
    assert codes == [0, 0, 0]


@pytest.mark.parametrize("bad", ["5", "1", "1.0", "-0.1", "nan", "inf"])
def test_max_regression_outside_unit_interval_exits_2(tmp_path, bad, capsys):
    """A band of 1 or more passes any drop (at 5 the floor is negative) and
    NaN fails every gate: both are rejected before anything is recorded."""
    report = tmp_path / "report.json"
    report.write_text(json.dumps(_report()))
    trajectory = tmp_path / "trajectory.json"
    with pytest.raises(SystemExit) as exit_info:
        bench_trajectory.main(
            [str(report), str(trajectory), "--max-regression", bad]
        )
    assert exit_info.value.code == 2
    assert "--max-regression" in capsys.readouterr().err
    assert not trajectory.exists()


@pytest.mark.parametrize("band, code", [("0", 1), ("0.5", 0), ("0.99", 0)])
def test_max_regression_inside_unit_interval_gates(tmp_path, band, code):
    trajectory = tmp_path / "trajectory.json"
    codes = []
    for i, headline in enumerate((1000.0, 600.0)):
        report = tmp_path / f"report{i}.json"
        report.write_text(json.dumps(_report(headline)))
        codes.append(
            bench_trajectory.main(
                [str(report), str(trajectory), "--max-regression", band]
            )
        )
    assert codes == [0, code]


def test_points_carry_no_retired_ratios(tmp_path):
    _, points = _run(tmp_path, _report())
    assert "incremental_speedup_multisegment" not in points[-1]
    assert "sweep_transport_reduction" not in points[-1]
    assert "fast_forward_speedup" not in points[-1]
