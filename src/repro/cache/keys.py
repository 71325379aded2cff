"""Canonical cache-key derivation for spec-addressed results.

A cache key is the SHA-256 of a *canonical JSON* rendering of everything the
result depends on: the serialized spec tree, the seed, the kind of execution,
any extra execution parameters (e.g. the trial count of a campaign), the cache
schema version and the library version.  Canonical means key-order
independent — two dicts that compare equal hash equal — so a spec loaded from
JSON, built in Python, or round-tripped through :meth:`ScenarioSpec.to_dict
<repro.scenario.spec.ScenarioSpec.to_dict>` all produce the same address.

>>> canonical_json({"b": 1, "a": [1, None, "x"]})
'{"a":[1,null,"x"],"b":1}'
>>> canonical_json({"a": 1}) == canonical_json({"a": 1.0})
False
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path
from typing import Mapping

__all__ = [
    "CACHE_SCHEMA",
    "cache_code_version",
    "source_digest",
    "canonical_json",
    "result_key",
    "campaign_key",
    "trial_key",
]

#: version of the cache *envelope and key layout*; bumping it invalidates
#: every existing entry (they simply stop being addressed).
CACHE_SCHEMA = 1


@lru_cache(maxsize=None)
def source_digest(root: str) -> str:
    """SHA-256 over every ``*.py`` file under *root* (path-sorted, recursive).

    Both the relative path and the content of each module are hashed, so
    editing, adding, renaming or deleting any source file changes the digest.
    Cached per *root* for the process lifetime: results saved by this process
    keep one consistent address even if the checkout is edited mid-run (the
    next process sees the new digest and re-executes).
    """
    digest = hashlib.sha256()
    base = Path(root)
    for path in sorted(base.rglob("*.py")):
        digest.update(str(path.relative_to(base)).encode("utf-8", "replace"))
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()


def cache_code_version() -> str:
    """The code-version component of every key: package version + source digest.

    Results are pure functions of ``(spec, seed)`` *for one version of the
    code* — a new release may legitimately change traces, so the version is
    hashed into the address and old entries become unreachable instead of
    stale.  Because a source checkout can change without a version bump, the
    declared version is combined with a :func:`source_digest` of the
    installed ``repro`` package tree: editing any execution module re-keys
    the cache immediately, no ``pyproject.toml`` bump required.
    """
    # Imported lazily: repro/__init__ pulls the whole public API and must not
    # load just because the cache machinery was imported.
    import repro
    from repro import __version__

    return f"{__version__}+src.{source_digest(str(Path(repro.__file__).parent))[:16]}"


def canonical_json(data) -> str:
    """Deterministic, key-order-independent JSON rendering of *data*.

    Only JSON types are accepted (dict/list/tuple/str/int/float/bool/None);
    NaN and infinities are rejected rather than serialized ambiguously.  Note
    that ``1`` and ``1.0`` render differently (``1`` vs ``1.0``) — spec
    validation already coerces numeric fields to one type, so equal specs
    render equally.

    >>> canonical_json({"y": (1, 2), "x": {"b": None, "a": True}})
    '{"x":{"a":true,"b":null},"y":[1,2]}'
    """

    def _reject(obj):
        raise TypeError(
            f"cache keys only accept JSON types, got {type(obj).__name__}: {obj!r}"
        )

    text = json.dumps(
        data,
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
        allow_nan=False,
        default=_reject,
    )
    # json.dumps serializes float keys etc. silently; a canonical key must not
    # depend on such coercions, so insist on string keys explicitly.
    _check_string_keys(data)
    return text


def _check_string_keys(data) -> None:
    if isinstance(data, Mapping):
        for key, value in data.items():
            if not isinstance(key, str):
                raise TypeError(
                    f"cache keys only accept string dict keys, got {key!r}"
                )
            _check_string_keys(value)
    elif isinstance(data, (list, tuple)):
        for item in data:
            _check_string_keys(item)


def result_key(kind: str, spec, seed: int, **extra) -> str:
    """The content address of one ``(kind, spec, seed)`` execution.

    *spec* is anything with a ``to_dict()`` (a
    :class:`~repro.scenario.spec.ScenarioSpec`) or an already-serialized
    mapping.  *extra* carries the execution parameters that change the result
    beyond the spec itself (e.g. ``trials=20``).  The returned key is a
    64-character hex digest, stable across processes and platforms.
    """
    spec_dict = spec.to_dict() if hasattr(spec, "to_dict") else dict(spec)
    payload = {
        "schema": CACHE_SCHEMA,
        "code": cache_code_version(),
        "kind": str(kind),
        "spec": spec_dict,
        "seed": int(seed),
        "extra": dict(extra),
    }
    return hashlib.sha256(canonical_json(payload).encode("ascii")).hexdigest()


def campaign_key(spec, seed: int, trials: int, kind: str = "runtime") -> str:
    """The address of a Monte-Carlo campaign: ``(spec, seed)`` × *trials*.

    This is the unit cached by the suite runner — one grid point's campaign —
    and by :func:`repro.experiments.parallel.run_runtime_campaign`.  *kind*
    names what a trial computes (``runtime``: an online run of a scenario;
    ``figure``: one random graph of a figure point), so campaigns of two
    kinds never share an address, whatever their specs and seeds.
    """
    return result_key(f"{kind}-campaign", spec, seed, trials=int(trials))


def trial_key(spec, seed: int, trial: int, kind: str = "runtime") -> str:
    """The address of a *single trial* of a campaign: the checkpoint unit.

    Derived like :func:`campaign_key` but per trial index — and deliberately
    **without** the campaign's total trial count, because trial ``k``'s seed
    is drawn by index from the campaign RNG stream
    (:func:`~repro.experiments.parallel.campaign_trial_seeds`) and therefore
    does not depend on how many trials follow it.  Growing a campaign from
    ``trials=1000`` to ``2000`` re-uses the first 1000 checkpoints, which is
    the trial-level granularity the ROADMAP's distributed-suites item names.

    *seed* is the campaign seed (the grid point's seed in a suite), not the
    trial's own derived seed: the trial seed is already a pure function of
    ``(seed, trial)``, so keying on the pair is equivalent and keeps the key
    derivable before any RNG work happens.  *kind* is the campaign's kind,
    as in :func:`campaign_key`.
    """
    return result_key(f"{kind}-trial", spec, seed, trial=int(trial))
