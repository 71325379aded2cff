"""Grid expansion: axis dicts → lists of scenario specs.

The sweep layers explore cartesian products of scenario axes (mttf × mttr ×
Weibull shape, granularity × ε, policy × admission, …).  Here an *axis* is a
dotted path into the spec tree (``"faults.mttf_periods"``) mapped to a
sequence of values, and :func:`expand_grid` turns a base spec plus an axis
dict into the product list of fully-validated specs — the first axis is the
major (slowest-varying) one, matching the grid order of
:func:`repro.experiments.sweep.run_suite`.

Because every point is a self-contained :class:`~repro.scenario.spec.
ScenarioSpec`, the expansion shards trivially across processes: a worker
receives one picklable spec, not a bag of loose keyword arguments.
"""

from __future__ import annotations

import itertools
from dataclasses import fields, replace
from typing import Iterable, Mapping, Sequence

from repro.exceptions import SpecificationError
from repro.scenario.spec import SECTION_TYPES, ScenarioSpec, _spec_paths

__all__ = ["apply_changes", "expand_grid", "normalize_axis"]


def _reject_path(path: str) -> None:
    from repro.utils.registry import close_matches_hint

    raise SpecificationError(
        f"unknown scenario path {path!r} (paths are 'section.field' like "
        f"'faults.mttf_periods'){close_matches_hint(path, _spec_paths())}"
    )


def apply_changes(spec: ScenarioSpec, changes: Mapping[str, object]) -> ScenarioSpec:
    """Apply dotted-path overrides to *spec*, revalidating the result.

    All changes of one section land in a single ``replace`` call, so a set of
    overrides that is only consistent *together* (e.g. switching to an ε-less
    scheduler while zeroing ε) validates as a whole, never through an
    invalid intermediate state.
    """
    per_section: dict[str, dict[str, object]] = {}
    top: dict[str, object] = {}
    for path, value in changes.items():
        if path == "name":
            top["name"] = value
            continue
        section, _, leaf = path.partition(".")
        if section in SECTION_TYPES and leaf in {
            f.name for f in fields(SECTION_TYPES[section])
        }:
            per_section.setdefault(section, {})[leaf] = value
        else:
            _reject_path(path)
    for section, leaves in per_section.items():
        top[section] = replace(getattr(spec, section), **leaves)
    return replace(spec, **top) if top else spec


def normalize_axis(path: str, values) -> tuple:
    """Validate one grid axis and materialize its values as a tuple.

    Any iterable of values is accepted (lists, tuples, numpy arrays, even
    generators — they are materialized exactly once); strings, bytes and
    non-iterables are rejected because a lone scalar where a value *list* was
    meant is the classic silent-sweep bug.  An **empty axis is an error, not
    an empty sweep**: the cartesian product of anything with zero values is
    zero points, so a config typo would otherwise "succeed" by sweeping
    nothing.  The error names the offending axis.
    """
    if (
        isinstance(values, (str, bytes, Mapping, set, frozenset))
        or not isinstance(values, Iterable)
    ):
        # str/bytes: a scalar where a value list was meant; sets/mappings:
        # unordered, and grid order determines the per-point seeds.
        raise SpecificationError(
            f"grid axis {path!r} must be an ordered sequence of values, "
            f"got {type(values).__name__}"
        )
    materialized = tuple(values)
    if not materialized:
        raise SpecificationError(
            f"grid axis {path!r} has no values — an empty axis would expand "
            f"to an empty sweep; give it at least one value or drop the axis"
        )
    # numpy scalars (an np.linspace axis, say) unwrap to plain Python values,
    # so axes stay JSON-serializable and cache keys canonical; list values
    # (a JSON task_range axis) become tuples so points stay hashable for the
    # panel pivots.
    plain = tuple(_plain_axis_value(value) for value in materialized)
    # ==-duplicates (including collisions like True == 1) would run the same
    # grid point twice and collapse onto one panel cell — reject up front.
    for i, value in enumerate(plain):
        if any(value == earlier for earlier in plain[:i]):
            raise SpecificationError(
                f"grid axis {path!r} has duplicate value {value!r} — every "
                f"axis value must be unique (use trials for repetition)"
            )
    return plain


def _plain_axis_value(value):
    import numpy as np

    if isinstance(value, np.generic):  # 0-d numpy scalar
        return value.item()
    if isinstance(value, np.ndarray):
        # a pair array like np.array([5, 10]) is a task_range-style value:
        # unwrap to a tuple of Python scalars, like a plain list would
        if value.ndim == 0:
            return value.item()
        return tuple(_plain_axis_value(v) for v in value.tolist())
    if isinstance(value, list):
        return tuple(_plain_axis_value(v) for v in value)
    return value


def expand_grid(
    base: ScenarioSpec, axes: Mapping[str, Sequence]
) -> list[ScenarioSpec]:
    """The cartesian product of *axes* applied to *base*, first axis major.

    Every axis must be a non-empty sequence of values (see
    :func:`normalize_axis`); the result enumerates the product with the last
    axis varying fastest (``itertools.product`` order), so
    ``{"a": [1, 2], "b": [x, y]}`` yields ``1x, 1y, 2x, 2y``.
    """
    paths = list(axes)
    normalized = {path: normalize_axis(path, axes[path]) for path in paths}
    specs = []
    for combo in itertools.product(*(normalized[p] for p in paths)):
        specs.append(apply_changes(base, dict(zip(paths, combo))))
    return specs
