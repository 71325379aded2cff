"""Command-line front end.

Examples
--------
Regenerate the benchmark-scale version of Figure 3(a)::

    repro-streaming figure3a

Regenerate Figure 4(c) at the paper's scale (60 graphs per point), fanning the
granularity points across 4 worker processes (same numbers, less wall-clock)::

    repro-streaming figure4c --paper-scale --jobs 4

The figure commands cache their campaigns in the result cache of ``suite
run`` (``$REPRO_CACHE_DIR`` moves it): panels of one ε share a campaign, and
a killed run resumes per graph instance.

Print the worked examples and the extra studies::

    repro-streaming examples
    repro-streaming ablations --jobs 2
    repro-streaming baselines
    repro-streaming scaling

Declarative scenarios: define a scenario once as JSON — ``config`` builds
one from ``PATH=VALUE`` overrides, the dotted spec paths suite axes use, with
JSON values — and drive any front end (schedule / simulate / online run /
Monte-Carlo campaign) through the :class:`~repro.api.Session` facade.  The
online streaming runtime executes a schedule under stochastic processor
failures with live rescheduling; a campaign runs many seeded trials of it, 4
at a time (identical statistics for any ``--jobs``)::

    repro-streaming config --emit > scenario.json                  # dump the default spec
    repro-streaming config runtime.policy=remap faults.mttf_periods=200 faults.mttr_periods=50 faults.distribution=weibull --emit > s.json
    repro-streaming config --scenario scenario.json                # validate a file

    repro-streaming run s.json                                     # one online run
    repro-streaming run s.json --mode monte-carlo --trials 20 --jobs 4
    repro-streaming run s.json --mode schedule
    repro-streaming run s.json --smoke                             # tiny run of all four modes

Scenario *suites*: one JSON file holding a base scenario plus named axes,
executed as a single sharded campaign with spec-hash result caching — an
unchanged suite re-runs entirely from cache, and replacing an axis value
re-executes only the changed grid points.  A failure-regime sweep is a suite
over ``faults.mttf_periods`` × ``faults.mttr_periods`` ×
``faults.weibull_shape``; a suite with ``"axes": {}`` is one cached,
resumable campaign::

    repro-streaming suite run examples/suite.json --jobs 4
    repro-streaming suite run examples/suite.json --x-axis faults.mttf_periods
    repro-streaming suite run examples/suite.json --no-cache
    repro-streaming suite run examples/suite.json --smoke          # tiny CI pass
    repro-streaming suite run campaign.json --resume --chaos crash=0.2,seed=7
    repro-streaming suite emit > suite.json                        # starter suite

Observability: the latency-distribution report of a suite (a warm cache
serves it without executing a single point), and per-run instrumentation —
probe metrics as JSON and a Gantt chart of the stream (SVG, or a
self-contained HTML page for ``.html`` paths)::

    repro-streaming suite report examples/suite.json
    repro-streaming run examples/scenario.json --metrics metrics.json --gantt run.svg
    repro-streaming run examples/scenario.json --gantt run.html --sample 0.25

Cache maintenance: inspect the result cache and prune it to a size bound
(least-recently-used entries go first; losing an entry only means the next
identical run recomputes it)::

    repro-streaming cache ls
    repro-streaming cache gc --max-size 500M

Scheduling-as-a-service: serve the whole engine over HTTP — POST a scenario
or suite JSON, poll the job, fetch the content-hashed result (an identical
re-submit is answered from cache without executing); ``suite report --json``
prints the same machine-readable document the results endpoint serves::

    repro-streaming serve --port 8000 --workers 2
    repro-streaming suite report examples/suite.json --json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Callable, Sequence

__all__ = ["main", "build_parser"]

#: the figure-panel commands, each a function of :mod:`repro.experiments.figures`.
#: Every command imports its machinery in its own handler, so a command pays
#: only for what it runs: ``--version`` or ``config --emit`` load no figure
#: stack and no service.
_FIGURES = ("figure3a", "figure3b", "figure3c", "figure4a", "figure4b", "figure4c")


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for the tests)."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro-streaming",
        description=(
            "Reproduction of 'Optimizing the Latency of Streaming Applications under "
            "Throughput and Reliability Constraints' (Benoit, Hakem, Robert, 2009)."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in _FIGURES:
        p = sub.add_parser(name, help=f"regenerate {name} of the paper")
        _add_scale_options(p)
    for name, help_text in (
        ("ablations", "ablation of Rule 1, one-to-one mapping and chunk size"),
        ("baselines", "fault-free comparison against related-work heuristics"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_scale_options(p)
    # the scaling study times fixed graph sizes: no graph count or scale
    _add_study_options(sub.add_parser("scaling", help="scheduler runtime vs graph size"))
    sub.add_parser("examples", help="print the Figure 1 and Figure 2 worked examples")
    _add_run_parser(sub)
    _add_config_parser(sub)
    _add_suite_parser(sub)
    _add_cache_parser(sub)
    _add_serve_parser(sub)
    return parser


def _number(
    kind: type = int,
    low: float | None = None,
    high: float | None = None,
    above: float | None = None,
) -> Callable[[str], float]:
    """The argparse type of every numeric flag: *kind* parsed from the text,
    finite, ``>= low``, ``<= high`` and ``> above`` (each bound optional).
    A violation is an argparse error naming the flag (exit 2)."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}"
            ) from None
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text!r}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {text!r}")
        if above is not None and value <= above:
            raise argparse.ArgumentTypeError(f"must be > {above}, got {text!r}")
        return value

    return parse


def _add_scale_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the full experimental scale of the paper (60 graphs per point)",
    )
    parser.add_argument(
        "--graphs",
        type=_number(int, low=1),
        default=None,
        help="override the number of random graphs per point",
    )
    _add_study_options(parser)


def _add_study_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-plot", action="store_true", help="print only the table, no ASCII plot"
    )
    parser.add_argument(
        "--jobs",
        type=_number(int, low=1),
        default=1,
        help=(
            "worker processes for the per-graph work units (results are "
            "identical for any value; in the scaling study each worker times "
            "its own scheduler runs)"
        ),
    )


def _override(text: str) -> tuple[str, object]:
    """One ``PATH=VALUE`` override of ``config``: a dotted spec path (the
    paths suite axes use) and a JSON value; text that is not JSON is taken
    as a string (``runtime.policy=remap``)."""
    path, sep, raw = text.partition("=")
    if not sep or not path:
        raise argparse.ArgumentTypeError(
            f"expected PATH=VALUE (e.g. faults.mttf_periods=200), got {text!r}"
        )
    try:
        value = json.loads(raw)
    except ValueError:
        value = raw
    return path, value


def _add_obs_options(p: argparse.ArgumentParser) -> None:
    """The observability-export flags of ``run``."""
    p.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help=(
            "write the probe metrics of one instrumented online run "
            "(counters, gauges, latency histogram, downtime spans) as JSON"
        ),
    )
    p.add_argument(
        "--gantt",
        default=None,
        metavar="PATH",
        help=(
            "write a Gantt chart of one online run; .html gets a self-"
            "contained page, any other suffix a static SVG"
        ),
    )
    p.add_argument(
        "--sample",
        type=_number(float, low=0, high=1),
        default=None,
        metavar="P",
        help=(
            "sampled trace retention for the --gantt export: keep every "
            "faulted data set and this fraction (0 to 1) of the completed "
            "ones (seeded, deterministic)"
        ),
    )


def _export_obs(args: argparse.Namespace, trace, probe) -> None:
    """Write the ``--gantt`` / ``--metrics`` artifacts of an instrumented run."""
    if args.gantt:
        from repro.obs import sample_trace, write_gantt

        export = trace
        if args.sample is not None:
            export = sample_trace(trace, args.sample, seed=args.seed)
        path = write_gantt(export, args.gantt)
        print(f"gantt: wrote {path} ({len(export.records)} of {len(trace.records)} records)")
    if args.metrics:
        path = Path(args.metrics)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(probe.as_dict(), indent=2, sort_keys=True) + "\n")
        print(f"metrics: wrote {path}")


def _add_run_parser(sub) -> None:
    p = sub.add_parser(
        "run",
        help="run a declarative scenario JSON file through the Session facade",
    )
    p.add_argument("scenario", help="path to a scenario JSON file")
    p.add_argument(
        "--mode",
        choices=("schedule", "simulate", "online", "monte-carlo"),
        default="online",
        help="which front end to drive (default: one online run)",
    )
    p.add_argument(
        "--seed",
        type=_number(int, low=0),
        default=0,
        help="run/campaign seed (default 0)",
    )
    p.add_argument(
        "--trials",
        type=_number(int, low=1),
        default=20,
        help="trials for --mode monte-carlo",
    )
    p.add_argument(
        "--jobs",
        type=_number(int, low=1),
        default=1,
        help="worker processes for --mode monte-carlo",
    )
    p.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "shrink the scenario (few data sets, 2 trials) and exercise all "
            "four modes once — the CI configuration smoke test"
        ),
    )
    _add_obs_options(p)


def _add_resilience_options(p: argparse.ArgumentParser) -> None:
    """The supervised-execution flags of ``suite run`` and ``suite report``."""
    p.add_argument(
        "--max-retries",
        type=_number(int, low=0),
        default=2,
        help=(
            "retries per trial after a worker crash or timeout before the "
            "point is reported failed (default: 2)"
        ),
    )
    p.add_argument(
        "--trial-timeout",
        type=_number(float, above=0),
        default=None,
        metavar="SECONDS",
        help=(
            "wall-clock budget per trial; a stuck worker past it is killed "
            "and the trial retried (needs --jobs >= 2; default: no timeout)"
        ),
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help=(
            "checkpoint every completed trial in the result cache and, on "
            "re-run, execute only the missing ones (needs a cache; the "
            "resumed result is bit-identical to an uninterrupted run)"
        ),
    )
    p.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help=(
            "inject deterministic faults into the toolchain itself, e.g. "
            "'crash=0.2,stall=0.1,corrupt=0.1,seed=7' (rates per trial "
            "attempt; $REPRO_CHAOS sets a default) — results still match a "
            "clean run bit for bit once retries recover"
        ),
    )


def _add_cache_options(p: argparse.ArgumentParser) -> None:
    """The result-cache flags shared by ``suite run`` and ``serve``.

    Both cache by default in the *user's* cache directory (never the cwd —
    see :func:`repro.cache.default_cache_dir`).
    """
    from repro.cache import default_cache_dir

    p.add_argument(
        "--cache-dir",
        default=str(default_cache_dir()),
        help=(
            "directory of the spec-hash result cache (default: the user "
            "cache dir; $REPRO_CACHE_DIR overrides)"
        ),
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the result cache entirely (neither read nor write it)",
    )


def _open_cli_cache(args: argparse.Namespace):
    from repro.cache import open_cache

    return open_cache(args.cache_dir, enabled=not args.no_cache)


def _add_suite_parser(sub) -> None:
    p = sub.add_parser(
        "suite",
        help=(
            "scenario suites: a base scenario + named axes executed as one "
            "sharded, cached sweep campaign"
        ),
    )
    ssub = p.add_subparsers(dest="suite_command", required=True)
    run_p = ssub.add_parser(
        "run", help="execute every grid point of a suite JSON file"
    )
    _add_suite_exec_options(run_p)
    report_p = ssub.add_parser(
        "report",
        help=(
            "latency-distribution report (p50/p95/p99/max per grid point) of "
            "a suite — a warm cache serves it without re-executing a point"
        ),
    )
    _add_suite_exec_options(report_p)
    report_p.add_argument(
        "--json",
        action="store_true",
        help=(
            "print the machine-readable suite result document instead of the "
            "report — the same JSON the service's results endpoint serves"
        ),
    )
    emit_p = ssub.add_parser(
        "emit", help="print a starter suite JSON (pipe into a suite file)"
    )
    emit_p.add_argument(
        "--scenario",
        default=None,
        help="use this scenario JSON file as the suite's base scenario",
    )


def _add_suite_exec_options(p: argparse.ArgumentParser) -> None:
    """The suite-execution flags shared by ``suite run`` and ``suite report``."""
    p.add_argument("suite", help="path to a suite JSON file")
    p.add_argument(
        "--jobs",
        type=_number(int, low=1),
        default=1,
        help="worker processes for cache-miss points",
    )
    p.add_argument(
        "--seed",
        type=_number(int, low=0),
        default=None,
        help="override the suite's campaign seed",
    )
    p.add_argument(
        "--trials",
        type=_number(int, low=1),
        default=None,
        help="override the suite's trials/point",
    )
    p.add_argument(
        "--x-axis",
        default=None,
        help="suite axis plotted on x in the report panels (default: first axis)",
    )
    p.add_argument(
        "--y-axis",
        default=None,
        help="suite axis leading the curve labels (default: declaration order)",
    )
    p.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "shrink the suite (2 values per axis, 1 trial, short streams) "
            "and run it — the CI configuration smoke test"
        ),
    )
    p.add_argument(
        "--no-plot", action="store_true", help="print only the tables, no ASCII plots"
    )
    _add_resilience_options(p)
    _add_cache_options(p)


def _run_suite_command(args: argparse.Namespace) -> int:
    from repro.exceptions import SchedulingError
    from repro.scenario.suite import SuiteSpec

    if args.suite_command == "emit":
        return _emit_suite(args)
    from repro.experiments.reporting import render_latency_report, render_suite
    from repro.experiments.sweep import run_suite

    try:
        suite = SuiteSpec.from_file(args.suite)
    except OSError as exc:
        print(f"repro-streaming suite: error: cannot read suite: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"repro-streaming suite: error: {exc}", file=sys.stderr)
        return 2
    if args.smoke:
        suite = suite.smoke()
    # a bad axis flag must fail here, not after the whole grid executed
    for flag, value in (("--x-axis", args.x_axis), ("--y-axis", args.y_axis)):
        if value is not None and value not in suite.axes:
            print(
                f"repro-streaming suite: error: {flag}: {value!r} is not an "
                f"axis of suite {suite.name!r} (axes: {list(suite.axes)})",
                file=sys.stderr,
            )
            return 2
    effective_x = args.x_axis or next(iter(suite.axes), None)
    if args.y_axis is not None and args.y_axis == effective_x:
        print(
            f"repro-streaming suite: error: --y-axis {args.y_axis!r} is the "
            f"x axis of the report; pick a different axis for the curves",
            file=sys.stderr,
        )
        return 2
    try:
        from repro.resilience import drain_signals

        with drain_signals() as stop:
            result = run_suite(
                suite,
                seed=args.seed,
                trials=args.trials,
                jobs=args.jobs,
                cache=_open_cli_cache(args),
                max_retries=args.max_retries,
                trial_timeout=args.trial_timeout,
                resume=args.resume,
                chaos=args.chaos,
                stop=stop,
            )
        if args.suite_command == "report" and args.json:
            return _print_suite_json(result, args)
        render = (
            render_latency_report
            if args.suite_command == "report"
            else render_suite
        )
        report = render(
            result, x_axis=args.x_axis, y_axis=args.y_axis, plot=not args.no_plot
        )
    except (ValueError, SchedulingError) as exc:
        print(f"repro-streaming suite: error: {exc}", file=sys.stderr)
        return 2
    print(report)
    if result.interrupted:
        print(
            "repro-streaming suite: interrupted — re-run with --resume to "
            "execute only the missing trials (completed trials are "
            "checkpointed when --resume and the cache are on)",
            file=sys.stderr,
        )
        return 130
    return 0


def _print_suite_json(result, args: argparse.Namespace) -> int:
    """``suite report --json``: the service's machine-readable result document.

    The exact payload ``GET /v1/results/{key}`` serves (same ``result_key``
    derivation), so CLI pipelines and HTTP dashboards consume one format.
    """
    from repro.service.models import suite_result_key, suite_result_payload

    key = suite_result_key(result.suite, result.seed, result.trials)
    print(json.dumps(suite_result_payload(result, key=key)))
    return 0


def _emit_suite(args: argparse.Namespace) -> int:
    from repro.scenario.spec import ScenarioSpec
    from repro.scenario.suite import SuiteSpec

    try:
        if args.scenario is not None:
            base = ScenarioSpec.from_file(args.scenario)
        else:
            base = ScenarioSpec()
    except OSError as exc:
        print(
            f"repro-streaming suite: error: cannot read scenario: {exc}",
            file=sys.stderr,
        )
        return 2
    except ValueError as exc:
        print(f"repro-streaming suite: error: {exc}", file=sys.stderr)
        return 2
    suite = SuiteSpec(
        base=base,
        axes={
            "faults.mttf_periods": [50.0, 100.0, 200.0, 400.0],
            "faults.mttr_periods": [None, 25.0],
        },
        name=f"{base.name}-suite",
    )
    print(suite.to_json())
    return 0


def _parse_size(text: str) -> int:
    """A byte count with an optional K/M/G suffix (``500M``, ``2G``, ``0``)."""
    import math

    text = text.strip()
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    factor = units.get(text[-1:].upper())
    number = text[:-1] if factor else text
    try:
        value = float(number) * (factor or 1)
    except ValueError:
        value = float("nan")
    # one error path for unparsable, non-finite ('inf', 'nan') and negative
    # sizes: int() of an infinity would escape argparse as an OverflowError
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(
            f"invalid size {text!r} (expected a non-negative byte count, "
            f"optionally K/M/G-suffixed)"
        )
    return int(value)


def _format_size(n: int | float) -> str:
    """Human form of a byte count (``12.3 MiB``)."""
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    return f"{value:.1f} GiB"  # pragma: no cover - unreachable


def _add_cache_parser(sub) -> None:
    p = sub.add_parser(
        "cache",
        help="inspect and prune the spec-hash result cache",
    )
    csub = p.add_subparsers(dest="cache_command", required=True)
    ls_p = csub.add_parser(
        "ls", help="entry count, bytes and last-use ages of the cache"
    )
    gc_p = csub.add_parser(
        "gc",
        help=(
            "evict least-recently-used entries until the cache fits a size "
            "bound (hits refresh an entry's place in line; losing an entry "
            "only means the next identical run recomputes it)"
        ),
    )
    gc_p.add_argument(
        "--max-size",
        type=_parse_size,
        required=True,
        help="size bound in bytes, or K/M/G-suffixed (e.g. 500M); 0 empties the cache",
    )
    for sp in (ls_p, gc_p):
        sp.add_argument(
            "--cache-dir",
            default=None,
            help="cache directory (default: the user cache dir; $REPRO_CACHE_DIR overrides)",
        )


def _add_serve_parser(sub) -> None:
    p = sub.add_parser(
        "serve",
        help=(
            "serve the engine over HTTP: POST scenarios/suites, poll jobs, "
            "fetch content-hashed results (see docs/service.md)"
        ),
    )
    p.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback only)"
    )
    p.add_argument(
        "--port",
        type=_number(int, low=0, high=65535),
        default=8000,
        help="TCP port (0 picks a free one)",
    )
    p.add_argument(
        "--workers",
        type=_number(int, low=1),
        default=2,
        help=(
            "concurrent job executions: each executing scenario job runs in "
            "its own forked process, suite jobs run in-thread"
        ),
    )
    p.add_argument(
        "--queue-capacity",
        type=_number(int, low=0),
        default=8,
        help=(
            "admitted-but-not-yet-running jobs; beyond workers + this, "
            "submits are shed with 429 + Retry-After instead of queueing"
        ),
    )
    p.add_argument(
        "--exec-jobs",
        type=_number(int, low=1),
        default=1,
        help=(
            "worker processes per suite job, forwarded to the campaign "
            "engine (bit-identical results at any value)"
        ),
    )
    p.add_argument(
        "--progress-every",
        type=_number(int, low=1),
        default=200,
        help="datasets between two progress events on the job event stream",
    )
    _add_cache_options(p)


def _run_serve_command(args: argparse.Namespace) -> int:
    from repro.service import JobStore, ServiceApp, WorkerPool, make_threaded_server
    from repro.service.limits import CircuitBreaker

    pool = WorkerPool(workers=args.workers, queue_capacity=args.queue_capacity)
    store = JobStore(
        cache=_open_cli_cache(args),
        pool=pool,
        exec_jobs=args.exec_jobs,
        breaker=CircuitBreaker(),
        progress_every=args.progress_every,
    )
    try:
        server = make_threaded_server(ServiceApp(store), args.host, args.port)
    except OSError as exc:
        print(
            f"repro-streaming serve: error: cannot bind {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        pool.shutdown(wait=False)
        return 2
    host, port = server.server_address[:2]
    cache_note = (
        "cache off" if args.no_cache else f"cache {args.cache_dir}"
    )
    print(
        f"repro-streaming serve: http://{host}:{port} "
        f"({args.workers} workers, queue {args.queue_capacity}, {cache_note}) "
        f"— Ctrl-C stops",
        flush=True,
    )
    # SIGTERM (the supervisor/container stop signal) drains exactly like
    # Ctrl-C: in-flight suite jobs return at their next trial boundary with
    # every completed trial checkpointed, so a resubmit resumes.
    import signal

    def _terminate(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _terminate)
    graceful = False
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("repro-streaming serve: draining and shutting down", file=sys.stderr)
        graceful = True
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.server_close()
        if graceful:
            store.drain()
        else:
            pool.shutdown(wait=False)
    return 0


def _run_cache_command(args: argparse.Namespace) -> int:
    from repro.cache import DiskCache, default_cache_dir
    from repro.utils.ascii import format_table

    root = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    cache = DiskCache(root)
    usage = cache.usage()
    if args.cache_command == "gc":
        evicted = cache.gc(args.max_size)
        freed = sum(e.size for e in evicted)
        after = cache.usage()
        print(
            f"evicted {len(evicted)} of {usage.entries} entries "
            f"({_format_size(freed)} freed); {after.entries} entries, "
            f"{_format_size(after.total_bytes)} remain in {root}"
        )
        return 0
    print(f"result cache: {root}")
    if not usage.entries:
        print("(empty)")
        q_entries, q_bytes = cache.quarantine_usage()
        if q_entries:
            print(
                f"quarantine: {q_entries} corrupted entr"
                f"{'y' if q_entries == 1 else 'ies'} ({_format_size(q_bytes)})"
            )
        return 0
    now = time.time()
    entries = sorted(cache.entries(), key=lambda e: (-e.used, e.key))
    rows: list[list[object]] = [
        [e.key[:16], _format_size(e.size), _format_age(now - e.used)]
        for e in entries
    ]
    q_entries, q_bytes = cache.quarantine_usage()
    if q_entries:
        rows.append(
            [f"quarantine ({q_entries} corrupted)", _format_size(q_bytes), ""]
        )
    rows.append(
        [f"total ({usage.entries} entries)", _format_size(usage.total_bytes), ""]
    )
    print(
        format_table(
            ["entry", "size", "last used"], rows, title="result cache entries"
        )
    )
    return 0


def _format_age(seconds: float) -> str:
    """Human form of an age in seconds (``3.2 h ago``)."""
    seconds = max(0.0, seconds)
    for limit, unit, scale in ((120, "s", 1), (7200, "min", 60), (172800, "h", 3600)):
        if seconds < limit:
            return f"{seconds / scale:.1f} {unit} ago"
    return f"{seconds / 86400:.1f} d ago"


def _add_config_parser(sub) -> None:
    p = sub.add_parser(
        "config",
        help="build, validate and emit declarative scenario specs",
    )
    p.add_argument(
        "--scenario",
        default=None,
        help=(
            "start from this scenario JSON file (validated); any overrides "
            "given alongside are applied on top of it"
        ),
    )
    p.add_argument(
        "overrides",
        nargs="*",
        type=_override,
        metavar="PATH=VALUE",
        help=(
            "set one spec field by its dotted path, e.g. "
            "faults.mttf_periods=200, faults.mttr_periods=null, "
            "runtime.policy=remap or name=demo; VALUE is JSON, and text "
            "that is not JSON is a string"
        ),
    )
    p.add_argument(
        "--emit",
        action="store_true",
        help="print the resolved spec as JSON (pipe into a scenario file)",
    )


def _config(args: argparse.Namespace):
    from repro.experiments.config import bench_config, paper_config

    config = paper_config() if args.paper_scale else bench_config()
    if args.graphs is not None:
        config = config.with_overrides(num_graphs=args.graphs)
    return config


def _print_result(result, title: str) -> None:
    from repro.utils.ascii import format_table

    print(format_table(["metric", "value"], result.as_rows(), title=title))


def _run_run_command(args: argparse.Namespace) -> int:
    from repro.api import Session
    from repro.exceptions import SchedulingError

    try:
        session = Session.from_file(args.scenario)
    except OSError as exc:
        print(f"repro-streaming run: error: cannot read scenario: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"repro-streaming run: error: {exc}", file=sys.stderr)
        return 2

    if (args.metrics or args.gantt) and (args.smoke or args.mode != "online"):
        print(
            "repro-streaming run: error: --metrics/--gantt instrument a "
            "single online run (--mode online, without --smoke)",
            file=sys.stderr,
        )
        return 2
    if args.sample is not None and not args.gantt:
        print(
            "repro-streaming run: error: --sample only thins the --gantt "
            "export; pass --gantt too",
            file=sys.stderr,
        )
        return 2

    spec = session.spec
    print(spec.describe())
    try:
        if args.smoke:
            # Tiny pass through every front end: the configuration path is
            # exercised end to end without the full Monte-Carlo cost.
            small = spec.updated(
                {"runtime.num_datasets": min(spec.runtime.num_datasets, 25)}
            )
            session = Session(small)
            _print_result(session.schedule(args.seed), "schedule")
            _print_result(session.simulate(seed=args.seed), "simulate")
            _print_result(session.run_online(args.seed), "online run")
            _print_result(
                session.monte_carlo(trials=2, seed=args.seed, jobs=1),
                "monte-carlo (2 trials)",
            )
            return 0
        if args.mode == "schedule":
            result = session.schedule(args.seed)
        elif args.mode == "simulate":
            result = session.simulate(seed=args.seed)
        elif args.mode == "online":
            probe = None
            if args.metrics or args.gantt:
                from repro.obs import MetricsProbe

                probe = MetricsProbe()
            result = session.run_online(args.seed, probe=probe)
        else:
            result = session.monte_carlo(
                trials=args.trials, seed=args.seed, jobs=args.jobs
            )
    except (ValueError, SchedulingError) as exc:
        print(f"repro-streaming run: error: {exc}", file=sys.stderr)
        return 2
    _print_result(result, f"{spec.name} — {args.mode} (seed {args.seed})")
    if args.mode == "online" and probe is not None:
        _export_obs(args, result.trace, probe)
    return 0


def _run_config_command(args: argparse.Namespace) -> int:
    from repro.scenario.spec import ScenarioSpec

    try:
        if args.scenario is not None:
            base = ScenarioSpec.from_file(args.scenario)
        else:
            base = ScenarioSpec()
        spec = base.updated(dict(args.overrides))
    except OSError as exc:
        print(f"repro-streaming config: error: cannot read scenario: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"repro-streaming config: error: {exc}", file=sys.stderr)
        return 2
    if args.emit:
        print(spec.to_json())
    else:
        print(f"scenario OK: {spec.describe()}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    A reader that closes the pipe early (``| head``) ends the command with
    exit code 1 and no traceback: stdout is flushed inside the ``try`` and,
    on ``BrokenPipeError``, pointed at ``os.devnull`` so the interpreter's
    final flush cannot fail again (the "Note on SIGPIPE" of the Python
    ``signal`` docs)."""
    try:
        code = _run_command(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


def _run_command(argv: Sequence[str] | None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command

    if command == "examples":
        from repro.experiments.reporting import render_example_rows
        from repro.experiments.tables import figure1_scenarios, figure2_example

        print(render_example_rows(figure1_scenarios(), "Figure 1 — execution scenarios"))
        print()
        print(render_example_rows(figure2_example(), "Figure 2 — LTF vs R-LTF"))
        return 0
    if command == "run":
        return _run_run_command(args)
    if command == "config":
        return _run_config_command(args)
    if command == "suite":
        return _run_suite_command(args)
    if command == "cache":
        return _run_cache_command(args)
    if command == "serve":
        return _run_serve_command(args)

    from repro.experiments import figures as fig
    from repro.experiments.reporting import render_series

    jobs = args.jobs
    if command in _FIGURES:
        from repro.cache import default_cache_dir

        series = getattr(fig, command)(_config(args), jobs=jobs, cache=default_cache_dir())
    elif command == "ablations":
        series = fig.ablation_rules(_config(args), jobs=jobs)
    elif command == "baselines":
        series = fig.baseline_comparison(_config(args), jobs=jobs)
    elif command == "scaling":
        series = fig.scaling_study(jobs=jobs)
    else:  # pragma: no cover - argparse enforces valid choices
        parser.error(f"unknown command {command!r}")
        return 2
    print(render_series(series, plot=not args.no_plot))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
