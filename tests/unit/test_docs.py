"""The docs build/link check: the docs/ tree and README must stay coherent.

This is what the CI docs job runs: every relative markdown link must resolve
to a real file (with a real heading when it carries an anchor), the JSON
examples shipped under examples/ must parse as valid scenario/suite files,
and the schema reference in docs/scenarios.md must name every spec field —
a field added to the dataclasses without a docs row fails here.  Every
``repro-streaming`` command line shown in a code block must parse with the
real CLI parser (and every ``config`` override must name a real spec path),
so a deleted flag or a mistyped path cannot linger in the docs.
"""

from __future__ import annotations

import re
import shlex
from dataclasses import fields
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.scenario.spec import SECTION_TYPES, ScenarioSpec
from repro.scenario.suite import SuiteSpec

REPO = Path(__file__).resolve().parents[2]

MARKDOWN_FILES = [
    REPO / "README.md",
    *sorted((REPO / "docs").glob("*.md")),
]

_LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#+\s+(.*)$", re.MULTILINE)


def _anchor_of(heading: str) -> str:
    """GitHub-style anchor of a markdown heading."""
    slug = heading.strip().lower()
    slug = re.sub(r"[^\w\s-]", "", slug)
    return re.sub(r"\s+", "-", slug)


def _relative_links(text: str):
    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        yield target


def test_docs_tree_exists():
    assert (REPO / "docs" / "architecture.md").is_file()
    assert (REPO / "docs" / "scenarios.md").is_file()


@pytest.mark.parametrize("path", MARKDOWN_FILES, ids=lambda p: p.name)
def test_relative_links_resolve(path):
    text = path.read_text()
    broken = []
    for target in _relative_links(text):
        file_part, _, anchor = target.partition("#")
        dest = (path.parent / file_part).resolve() if file_part else path
        if not dest.exists():
            broken.append(target)
            continue
        if anchor and dest.suffix == ".md":
            anchors = {_anchor_of(h) for h in _HEADING.findall(dest.read_text())}
            if anchor not in anchors:
                broken.append(target)
    assert not broken, f"{path.name}: broken links {broken}"


_MARKDOWN_NAME = re.compile(r"\b((?:docs/)?[A-Za-z0-9_-]+\.md)\b")


def test_markdown_files_named_in_the_source_exist():
    """Every ``NAME.md`` or ``docs/NAME.md`` a module or docstring under src/
    mentions must exist at the repository root or under docs/."""
    missing = sorted(
        f"{path.relative_to(REPO)}: {name}"
        for path in sorted((REPO / "src").rglob("*.py"))
        for name in set(_MARKDOWN_NAME.findall(path.read_text()))
        if not (REPO / name).is_file()
    )
    assert not missing, f"source cites missing markdown files: {missing}"


def test_readme_links_the_docs_tree():
    text = (REPO / "README.md").read_text()
    assert "docs/architecture.md" in text
    assert "docs/scenarios.md" in text
    assert "docs/observability.md" in text


def test_observability_doc_covers_the_obs_cli_surface():
    """docs/observability.md must document every observability CLI flag, the
    report command and the probe API entry points."""
    text = (REPO / "docs" / "observability.md").read_text()
    for flag in ("--metrics", "--gantt", "--sample"):
        assert f"`{flag}" in text, f"observability.md misses flag {flag}"
    assert "suite report" in text
    for name in ("Probe", "MetricsProbe", "LatencyHistogram", "sample_trace",
                 "write_gantt", "run_online"):
        assert name in text, f"observability.md misses API {name}"
    assert "docs/architecture.md" not in text  # links are relative within docs/
    assert "observability.md" in (REPO / "docs" / "architecture.md").read_text()


def test_docs_cover_the_scheduler_hot_path():
    """performance.md must explain the planning hot path, name the corpus
    that guards it and document the gated scheduler benchmark rows."""
    performance = (REPO / "docs" / "performance.md").read_text()
    assert "## Scheduler hot path" in performance
    for name in ("ScratchTimeline", "earliest_common_slot", "apply_placement",
                 "link_bandwidths", "stage_on", "scheduler_builds", "finish_floor",
                 "slot_floor", "### Candidates that cannot win are not planned",
                 "### The commit builds no objects"):
        assert name in performance, f"performance.md misses {name}"
    for path in ("tests/golden/schedule_fingerprints.json",
                 "tests/unit/test_schedule_corpus.py",
                 "tests/property/test_pruning_properties.py",
                 "src/repro/schedule/schedule.py",
                 "src/repro/utils/intervals.py"):
        assert path in performance, f"performance.md misses {path}"
        assert (REPO / path).is_file(), f"performance.md names missing {path}"


def test_docs_cover_the_start_up_cost():
    """performance.md must give the start-up before/after table, the warm
    fork rule and where the heavy imports live; README must call networkx
    optional."""
    performance = (REPO / "docs" / "performance.md").read_text()
    assert "## Start-up cost" in performance
    section = performance.split("## Start-up cost", 1)[1].split("\n## ", 1)[0]
    for name in ("setup_s", "campaign-default", "stream-replicated", "service-mix",
                 "--version", "config --emit", "cache ls",
                 "already imported", "to_networkx", "repro.experiments.figures",
                 "repro.service", "tests/unit/test_startup.py"):
        assert name in section, f"performance.md's start-up section misses {name}"
    assert (REPO / "tests/unit/test_startup.py").is_file()
    readme = (REPO / "README.md").read_text()
    assert "networkx is optional" in readme


def test_docs_cover_the_kernel_hot_path():
    """performance.md must explain the kernel's record layout, flat heap
    entries, same-instant FIFO and O(1) watermark, name the corpus that
    guards them and the gated steady-kernel benchmark row."""
    performance = (REPO / "docs" / "performance.md").read_text()
    assert "## The kernel hot path" in performance
    for heading in ("### One record per live data set", "### Flat heap entries",
                    "### Same-instant events skip the heap",
                    "### The eviction watermark"):
        assert heading in performance, f"performance.md misses {heading}"
    for name in ("(time, seq, kind, operand, record)", "O(1)", "kernel_steady",
                 "rltf-n30-eps1-seed2-steady"):
        assert name in performance, f"performance.md misses {name}"
    for path in ("tests/golden/kernel_trace_fingerprints.json",
                 "tests/unit/test_kernel_corpus.py"):
        assert path in performance, f"performance.md misses {path}"
        assert (REPO / path).is_file(), f"performance.md names missing {path}"


def test_service_doc_covers_every_route_and_serve_flag():
    """docs/service.md must document the full HTTP surface: every route the
    WSGI app dispatches and every flag `repro-streaming serve` accepts —
    adding a route or a serve flag without a docs row fails here."""
    text = (REPO / "docs" / "service.md").read_text()
    # every route in the app's dispatch table, normalized to docs spelling
    from repro.service.app import ServiceApp

    app = ServiceApp()
    for method, pattern, _handler in app._routes:
        route = re.sub(r"\(\?P<job_id>[^)]*\)", "{id}", pattern.pattern)
        route = re.sub(r"\(\?P<key>[^)]*\)", "{key}", route)
        route = route.strip("^$")
        assert f"{method} {route}" in text, f"service.md misses route {method} {route}"
    # every flag of the serve subcommand
    from repro.cli import build_parser

    parser = build_parser()
    serve_parser = next(
        action.choices["serve"]
        for action in parser._actions
        if hasattr(action, "choices") and action.choices and "serve" in action.choices
    )
    flags = [
        opt
        for action in serve_parser._actions
        for opt in action.option_strings
        if opt.startswith("--") and opt != "--help"
    ]
    assert flags, "serve subcommand lost its flags?"
    for flag in flags:
        assert f"`{flag}`" in text, f"service.md misses serve flag {flag}"
    # the satellite features the service shares a format with
    assert "--json" in text  # suite report --json prints the same document
    assert "service_client.py" in text
    for concept in ("result_key", "campaign_key", "Retry-After", "429", "422"):
        assert concept in text, f"service.md misses {concept}"
    assert "docs/service.md" in (REPO / "README.md").read_text()
    assert "service.md" in (REPO / "docs" / "architecture.md").read_text()


def test_scenarios_doc_covers_the_failure_worlds():
    """docs/scenarios.md must document the failure-world vocabulary: a
    dedicated section, the trace-replay CSV walkthrough with its shipped
    example files, and the dotted path of every failure-world field that
    ``config`` overrides."""
    text = (REPO / "docs" / "scenarios.md").read_text()
    assert "### Failure worlds" in text
    for example in ("examples/cluster_trace.csv", "examples/trace_replay.json"):
        assert example in text, f"scenarios.md misses the shipped example {example}"
    for term in ("down", "up", "did-you-mean", "bit for bit"):
        assert term in text, f"scenarios.md walkthrough misses {term!r}"
    assert "### Overrides" in text
    for path in ("faults.trace_file", "faults.group_size", "faults.load_coupling",
                 "faults.spares", "faults.join_periods", "faults.preempt_periods"):
        assert f"`{path}`" in text, f"scenarios.md misses override path {path}"


def test_resilience_doc_covers_the_supervision_surface():
    """docs/resilience.md must document the resilient-execution surface: the
    CLI knobs of ``suite run``, the chaos spec vocabulary, resume
    semantics and the partial-result contract — adding a knob without a docs
    row fails here."""
    text = (REPO / "docs" / "resilience.md").read_text()
    for flag in ("--max-retries", "--trial-timeout", "--resume", "--chaos"):
        assert f"`{flag}" in text, f"resilience.md misses flag {flag}"
    # the CLI must actually accept those flags where the doc says it does
    from repro.cli import build_parser

    parser = build_parser()
    subparsers = next(
        action.choices
        for action in parser._actions
        if hasattr(action, "choices") and action.choices and "suite" in action.choices
    )
    suite_run = next(
        action.choices["run"]
        for action in subparsers["suite"]._actions
        if hasattr(action, "choices") and action.choices
    )
    flags = {opt for action in suite_run._actions for opt in action.option_strings}
    for flag in ("--max-retries", "--trial-timeout", "--resume", "--chaos"):
        assert flag in flags, f"suite run lost documented flag {flag}"
    for name in ("supervised_map", "RetryPolicy", "ChaosSpec", "trial_key",
                 "drain_signals", "ExecutionError", "REPRO_CHAOS"):
        assert name in text, f"resilience.md misses API {name}"
    for kind in ("crash", "stall", "corrupt"):
        assert f"`{kind}`" in text, f"resilience.md misses chaos kind {kind}"
    for concept in ("quarantine", "bit-identical", "130", "resilience.*"):
        assert concept in text, f"resilience.md misses {concept!r}"
    assert "docs/resilience.md" in (REPO / "README.md").read_text()
    assert "resilience.md" in (REPO / "docs" / "architecture.md").read_text()


def test_example_scenario_parses():
    spec = ScenarioSpec.from_file(REPO / "examples" / "scenario.json")
    assert spec.name


def test_example_trace_replay_parses_and_replays():
    spec = ScenarioSpec.from_file(REPO / "examples" / "trace_replay.json")
    assert spec.faults.trace_file == "examples/cluster_trace.csv"
    from repro.failures.trace_io import load_fault_trace

    trace = load_fault_trace(REPO / "examples" / "cluster_trace.csv")
    assert trace.num_crashes >= 4  # the walkthrough narrates real events
    # the recorded rack-A power dip is a correlated crash: two nodes, one time
    times = [e.time for e in trace.events if e.is_crash]
    assert len(times) != len(set(times))


def test_example_suite_parses_and_expands():
    suite = SuiteSpec.from_file(REPO / "examples" / "suite.json")
    assert suite.num_points == len(suite.points()) >= 2


def test_readme_says_figure_commands_are_cached():
    """Both README sections that run figure commands say they share the
    result cache and resume per graph instance."""
    readme = (REPO / "README.md").read_text()
    for heading in ("### Monte-Carlo campaigns, in parallel", "## Reproducing the paper"):
        section = " ".join(readme.split(heading, 1)[1].split("\n#", 1)[0].split())
        assert "figure commands are cached and resume per graph instance" in section, heading


def test_example_campaign_is_a_zero_axis_suite():
    campaign = SuiteSpec.from_file(REPO / "examples" / "campaign.json")
    assert campaign.axes == {} and campaign.points() == [campaign.base]
    for doc in ("README.md", "docs/resilience.md"):
        assert "examples/campaign.json" in (REPO / doc).read_text()


def test_scenarios_reference_covers_every_spec_field():
    """docs/scenarios.md must document every field of every spec section."""
    text = (REPO / "docs" / "scenarios.md").read_text()
    missing = [
        f"{section}.{spec_field.name}"
        for section, cls in SECTION_TYPES.items()
        for spec_field in fields(cls)
        if f"`{spec_field.name}`" not in text
    ]
    assert not missing, f"docs/scenarios.md misses spec fields: {missing}"
    for key in ("trials", "seed", "base", "axes"):
        assert f"`{key}`" in text, f"docs/scenarios.md misses suite key {key!r}"


_FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.MULTILINE | re.DOTALL)


def _cli_command_lines(text: str):
    """The ``repro-streaming`` invocations of every fenced code block.

    In a block with ``$`` prompts only the prompt lines are commands (the
    rest is output).  Backslash continuations are joined; a comment, a pipe,
    a redirect or a trailing ``&`` ends the command.
    """
    for block in _FENCE.findall(text):
        lines = block.replace("\\\n", " ").splitlines()
        if any(line.startswith("$ ") for line in lines):
            lines = [line[2:] for line in lines if line.startswith("$ ")]
        for line in lines:
            if not line.startswith("repro-streaming"):
                continue
            lexer = shlex.shlex(line, posix=True, punctuation_chars=True)
            lexer.whitespace_split = True
            argv = []
            for token in lexer:
                if set(token) <= set(lexer.punctuation_chars):
                    break
                argv.append(token)
            yield line, argv[1:]


@pytest.mark.parametrize("path", MARKDOWN_FILES, ids=lambda p: p.name)
def test_cli_command_lines_parse(path, capsys):
    """Every shown command parses, and every ``config`` override names a real
    spec path with a valid value."""
    parser = build_parser()
    bad = []
    for line, argv in _cli_command_lines(path.read_text()):
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            if exc.code != 0:  # --version / --help exit 0
                bad.append(line)
            continue
        if args.command == "config":
            try:
                ScenarioSpec().updated(dict(args.overrides))
            except ValueError:
                bad.append(line)
    capsys.readouterr()
    assert not bad, f"{path.name}: command lines the CLI rejects: {bad}"


def test_cli_command_line_extraction():
    text = (
        "```console\n$ repro-streaming serve --port 8000 &\n"
        "repro-streaming serve: http://127.0.0.1:8000\n```\n"
        "```\nrepro-streaming suite run s.json \\\n"
        '    --chaos "crash=0.3,seed=3" --jobs 2   # comment\n'
        "repro-streaming run s.json --json | jq . > out.json\n```\n"
    )
    assert [argv for _, argv in _cli_command_lines(text)] == [
        ["serve", "--port", "8000"],
        ["suite", "run", "s.json", "--chaos", "crash=0.3,seed=3", "--jobs", "2"],
        ["run", "s.json", "--json"],
    ]
