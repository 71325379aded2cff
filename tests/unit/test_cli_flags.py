"""Numeric CLI flags: out-of-range values are usage errors naming the flag.

Every case below must exit 2 through argparse before any work starts —
never a traceback (exit 1) and never a silently accepted or clamped value.
"""

from __future__ import annotations

import math

import pytest

from repro.cli import main
from repro.exceptions import SpecificationError
from repro.resilience import supervised_map

SCALE_COMMANDS = (
    "figure3a", "figure3b", "figure3c", "figure4a", "figure4b", "figure4c",
    "ablations", "baselines",
)


def _usage_error(argv: list[str], flag: str, capsys) -> None:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("command", SCALE_COMMANDS)
def test_graphs_must_be_positive(command, capsys):
    _usage_error([command, "--graphs", "0", "--no-plot"], "--graphs", capsys)


@pytest.mark.parametrize("command", (*SCALE_COMMANDS, "scaling"))
def test_scale_jobs_must_be_positive(command, capsys):
    _usage_error([command, "--jobs", "-2", "--no-plot"], "--jobs", capsys)


def test_run_jobs_must_be_positive(capsys):
    _usage_error(["run", "s.json", "--mode", "monte-carlo", "--jobs", "-2"], "--jobs", capsys)


@pytest.mark.parametrize("verb", ["run", "report"])
def test_suite_jobs_must_be_positive(verb, capsys):
    _usage_error(["suite", verb, "suite.json", "--jobs", "-2"], "--jobs", capsys)


@pytest.mark.parametrize(
    "flag, value", [("--seed", "-1"), ("--trials", "0"), ("--trials", "-3")]
)
def test_run_seed_and_trials_are_checked(flag, value, capsys):
    _usage_error(["run", "s.json", "--mode", "monte-carlo", flag, value], flag, capsys)


@pytest.mark.parametrize("verb", ["run", "report"])
@pytest.mark.parametrize(
    "flag, value",
    [("--seed", "-1"), ("--trials", "0"), ("--max-retries", "-1")],
)
def test_suite_seed_trials_and_retries_are_checked(verb, flag, value, capsys):
    _usage_error(["suite", verb, "suite.json", flag, value], flag, capsys)


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_trial_timeout_must_be_positive_and_finite(value, capsys):
    _usage_error(
        ["suite", "run", "suite.json", "--trial-timeout", value], "--trial-timeout", capsys
    )


@pytest.mark.parametrize("value", ["70000", "-1"])
def test_serve_port_must_be_a_tcp_port(value, capsys):
    _usage_error(["serve", "--port", value], "--port", capsys)


def test_serve_exec_jobs_must_be_positive(capsys):
    _usage_error(["serve", "--exec-jobs", "-3"], "--exec-jobs", capsys)


def test_serve_progress_every_must_be_positive(capsys):
    _usage_error(["serve", "--progress-every", "0"], "--progress-every", capsys)


def test_non_numeric_value_names_the_flag(capsys):
    _usage_error(["figure3a", "--graphs", "two"], "--graphs", capsys)


def test_supervised_map_rejects_a_nan_timeout():
    with pytest.raises(SpecificationError, match="timeout"):
        supervised_map(abs, [1, 2], jobs=2, timeout=math.nan)
