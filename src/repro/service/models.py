"""Request/response models of the scheduling service.

The service speaks the *same* schema as the files on disk: the body of
``POST /v1/scenarios`` wraps a scenario document exactly as ``repro-streaming
run`` would read it, and ``POST /v1/suites`` wraps a suite document exactly as
``repro-streaming suite run`` would.  Validation is therefore the existing
spec validation — :class:`~repro.scenario.spec.ScenarioSpec.from_dict` /
:class:`~repro.scenario.suite.SuiteSpec.from_dict` — and a bad request gets
the very message (field path, close-match suggestions) the CLI prints, as an
HTTP 422 payload instead of a stderr line.

Result identity is the content hash of the :mod:`repro.cache` key machinery:
every response echoes the canonical ``result_key`` (and, for suite points,
each ``campaign_key``), the submitted seed/trials and the engine version
(package version + source digest), so two clients POSTing the same document
to two service instances on the same code get the same address — and a
re-submit is served from that address without executing anything.

Everything here is pure data transformation: no I/O, no threads, no HTTP —
those live in :mod:`repro.service.jobs` and :mod:`repro.service.app`.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Mapping

from repro.cache.keys import cache_code_version, result_key
from repro.exceptions import SpecificationError
from repro.scenario.spec import ScenarioSpec
from repro.scenario.suite import SuiteSpec
from repro.utils.registry import close_matches_hint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.sweep import SweepResult
    from repro.runtime.trace import RuntimeTrace

__all__ = [
    "SERVICE_SCHEMA",
    "engine_version",
    "jsonable",
    "ScenarioRequest",
    "SuiteRequest",
    "scenario_result_key",
    "suite_result_key",
    "trace_fingerprint",
    "scenario_result_payload",
    "suite_result_payload",
    "error_payload",
]

#: version of the service wire format (stamped into every response).
SERVICE_SCHEMA = 1


def engine_version() -> str:
    """The engine identity echoed in every response.

    This is :func:`repro.cache.keys.cache_code_version` — package version plus
    a digest of the installed source tree — i.e. exactly the code component of
    every ``result_key``: responses carrying different engine versions carry
    incomparable result keys, by construction.
    """
    return cache_code_version()


def jsonable(value):
    """Deep-convert *value* to strict JSON types.

    Tuples become lists, mappings become plain dicts, and non-finite floats
    (NaN from an empty latency distribution, infinities) become ``None`` —
    ``json.dumps(allow_nan=False)`` would otherwise refuse the document, and
    ``NaN`` literals are not JSON at all.
    """
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, Mapping):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return str(value)


def _check_keys(data: Mapping, allowed: tuple[str, ...], what: str) -> None:
    if not isinstance(data, Mapping):
        raise SpecificationError(
            f"a {what} request must be a JSON object, got {type(data).__name__}"
        )
    for key in data:
        if key not in allowed:
            raise SpecificationError(
                f"unknown {what} request key {key!r}, expected one of "
                f"{sorted(allowed)}{close_matches_hint(key, allowed)}"
            )


def _check_seed(seed, default: int | None = 0) -> int | None:
    if seed is None:
        return default
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise SpecificationError(
            f"seed must be a non-negative integer, got {seed!r}"
        )
    return seed


@dataclass(frozen=True)
class ScenarioRequest:
    """One validated ``POST /v1/scenarios`` body: a scenario and a run seed.

    The scenario executes as one seeded online run —
    :meth:`Session.run_online <repro.api.Session.run_online>` — and the result
    is a pure function of ``(spec, seed, engine version)``, which is what
    makes :attr:`result_key` its identity.
    """

    spec: ScenarioSpec
    seed: int = 0

    KEYS = ("scenario", "seed")

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScenarioRequest":
        """Validate a request body; raises :class:`SpecificationError`."""
        _check_keys(data, cls.KEYS, "scenario")
        if "scenario" not in data:
            raise SpecificationError(
                "scenario request must carry a 'scenario' key holding the "
                "scenario document (the same JSON 'repro-streaming run' reads)"
            )
        from repro.scenario.run import validate_spec_options

        spec = ScenarioSpec.from_dict(data["scenario"])
        validate_spec_options(spec)  # bad scheduler.options → 422 now, not a failed job
        return cls(spec=spec, seed=_check_seed(data.get("seed")))

    @property
    def result_key(self) -> str:
        return scenario_result_key(self.spec, self.seed)


@dataclass(frozen=True)
class SuiteRequest:
    """One validated ``POST /v1/suites`` body: a suite plus overrides.

    *seed* and *trials* default to the suite's own declared values (exactly
    the ``--seed`` / ``--trials`` overrides of ``repro-streaming suite run``).
    """

    suite: SuiteSpec
    seed: int | None = None
    trials: int | None = None

    KEYS = ("suite", "seed", "trials")

    @classmethod
    def from_dict(cls, data: Mapping) -> "SuiteRequest":
        """Validate a request body; raises :class:`SpecificationError`."""
        _check_keys(data, cls.KEYS, "suite")
        if "suite" not in data:
            raise SpecificationError(
                "suite request must carry a 'suite' key holding the suite "
                "document (the same JSON 'repro-streaming suite run' reads)"
            )
        trials = data.get("trials")
        if trials is not None and (
            isinstance(trials, bool) or not isinstance(trials, int) or trials < 1
        ):
            raise SpecificationError(f"trials must be an int >= 1, got {trials!r}")
        from repro.scenario.run import validate_spec_options

        suite = SuiteSpec.from_dict(data["suite"])
        validate_spec_options(suite.base)
        return cls(
            suite=suite,
            seed=_check_seed(data.get("seed"), default=None),
            trials=trials,
        )

    @property
    def run_seed(self) -> int:
        """The seed the run executes with (override or suite default)."""
        return self.suite.seed if self.seed is None else self.seed

    @property
    def run_trials(self) -> int:
        return self.suite.trials if self.trials is None else self.trials

    @property
    def result_key(self) -> str:
        return suite_result_key(self.suite, self.run_seed, self.run_trials)


# ------------------------------------------------------------- result identity
def scenario_result_key(spec: ScenarioSpec, seed: int) -> str:
    """The content address of one online run: ``(spec, seed, engine)``.

    Same derivation as every cache key (:func:`repro.cache.keys.result_key`),
    under its own ``kind`` so service results never collide with campaign
    entries.
    """
    return result_key("service-online-run", spec, seed)


def suite_result_key(suite: SuiteSpec, seed: int, trials: int) -> str:
    """The content address of one whole suite run.

    The per-point campaigns keep their own :func:`~repro.cache.keys.
    campaign_key` addresses (the suite runner reuses them point by point);
    this key addresses the assembled suite-level result document.
    """
    return result_key("service-suite-run", suite, seed, trials=int(trials))


def trace_fingerprint(trace: "RuntimeTrace") -> str:
    """A stable content hash of one runtime trace (bit-identity witness).

    Two traces are equal iff their fingerprints are equal: the digest covers
    every dataset record, every runtime event and the aggregate fields, with
    floats rendered by exact ``repr``.  The CI service smoke test asserts a
    re-POST returns the *same fingerprint* — cached results are bit-identical
    to re-execution, not merely statistically close.
    """
    digest = hashlib.sha256()
    for record in trace.records:
        digest.update(
            f"{record.index}|{record.release!r}|{record.completion!r}|{record.status}\n".encode()
        )
    for event in trace.events:
        digest.update(
            f"{event.time!r}|{event.kind}|{event.processor}|{event.detail}\n".encode()
        )
    digest.update(
        f"{trace.period!r}|{trace.horizon!r}|{trace.num_rebuilds}|"
        f"{trace.downtime!r}|{trace.aborted}|{trace.policy}|"
        f"{trace.admission}|{trace.checkpoint}|{','.join(trace.final_alive)}".encode()
    )
    return digest.hexdigest()


# ------------------------------------------------------------ result payloads
def scenario_result_payload(
    spec: ScenarioSpec, seed: int, trace: "RuntimeTrace"
) -> dict:
    """The JSON result document of one scenario job (``GET /v1/results/{key}``).

    Carries the identity block (key, engine, seed), the same headline summary
    :meth:`OnlineResult.summary <repro.api.OnlineResult.summary>` prints, and
    the exact trace fingerprint.
    """
    from repro.api import OnlineResult

    summary = OnlineResult(spec=spec, seed=seed, trace=trace).summary()
    return jsonable(
        {
            "schema": SERVICE_SCHEMA,
            "kind": "scenario",
            "result_key": scenario_result_key(spec, seed),
            "engine": engine_version(),
            "name": spec.name,
            "seed": seed,
            "summary": {key.replace(" ", "_"): value for key, value in summary.items()},
            "fingerprint": trace_fingerprint(trace),
            "num_events": len(trace.events),
        }
    )


def suite_result_payload(result: "SweepResult", key: str | None = None) -> dict:
    """The JSON result document of one suite run.

    This is the *one* machine-readable suite summary: ``GET /v1/results/{key}``
    serves it and ``repro-streaming suite report --json`` prints it, so a
    dashboard reads the same document whether the run happened over HTTP or in
    a shell.  Each grid point carries its axis values, its derived campaign
    seed, its canonical ``campaign_key``, whether it was served from cache,
    and the full :class:`~repro.runtime.trace.RuntimeStats` (including the
    sparse merge-exact latency histogram).
    """
    from repro.cache.keys import campaign_key

    suite = result.suite
    points = [
        {
            "axes": {path: point.value_of(path) for path in suite.axes},
            "seed": point.seed,
            "source": "cache" if point.cached else "run",
            "stats": asdict(point.stats),
            "campaign_key": campaign_key(point.spec, point.seed, result.trials),
        }
        for point in result.points
    ]
    payload = {
        "schema": SERVICE_SCHEMA,
        "kind": "suite",
        "engine": engine_version(),
        "name": suite.name,
        "seed": result.seed,
        "trials": result.trials,
        "num_points": len(result.points),
        "executed_points": result.executed_count,
        "cached_points": result.cached_count,
        "axes": {path: list(values) for path, values in suite.axes.items()},
        "cache": (
            {
                "enabled": True,
                "hits": result.cache_stats.hits,
                "misses": result.cache_stats.misses,
                "errors": result.cache_stats.errors,
                "writes": result.cache_stats.writes,
            }
            if result.cache_enabled
            else {"enabled": False}
        ),
        "points": points,
    }
    if key is not None:
        payload["result_key"] = key
    return jsonable(payload)


def error_payload(status: int, message: str, kind: str = "error") -> dict:
    """The uniform JSON error body (422 validation, 404, 429 shed, ...)."""
    return {
        "schema": SERVICE_SCHEMA,
        "error": {"status": status, "kind": kind, "message": message},
    }
