"""Argument-validation helpers.

The public API validates its inputs eagerly so that configuration mistakes
surface at the call site (e.g. a negative task weight or a probability above 1)
rather than as obscure failures deep inside a heuristic.
"""

from __future__ import annotations

import math
import numbers
from typing import Any

__all__ = [
    "check_count",
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_type",
    "check_in_range",
]


def check_count(value: Any, name: str, minimum: int = 1) -> int:
    """Return *value* if it is an integer ``>= minimum``, raise ``ValueError``
    otherwise (a ``bool`` is not a count, nor is a float or NaN)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an int >= {minimum}, got {value!r}")
    return int(value)


def check_positive(value: float, name: str) -> float:
    """Return *value* if it is a finite number ``> 0``, raise ``ValueError`` otherwise."""
    _check_finite_number(value, name)
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return float(value)


def check_non_negative(value: float, name: str) -> float:
    """Return *value* if it is a finite number ``>= 0``, raise ``ValueError`` otherwise."""
    _check_finite_number(value, name)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return float(value)


def check_probability(value: float, name: str) -> float:
    """Return *value* if it lies in ``[0, 1]``, raise ``ValueError`` otherwise."""
    _check_finite_number(value, name)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be within [0, 1], got {value!r}")
    return float(value)


def check_in_range(value: float, low: float, high: float, name: str) -> float:
    """Return *value* if ``low <= value <= high``, raise ``ValueError`` otherwise."""
    _check_finite_number(value, name)
    if not low <= value <= high:
        raise ValueError(f"{name} must be within [{low}, {high}], got {value!r}")
    return float(value)


def check_type(value: Any, expected: type | tuple[type, ...], name: str) -> Any:
    """Return *value* if it is an instance of *expected*, raise ``TypeError`` otherwise."""
    if not isinstance(value, expected):
        if isinstance(expected, tuple):
            names = " or ".join(t.__name__ for t in expected)
        else:
            names = expected.__name__
        raise TypeError(f"{name} must be {names}, got {type(value).__name__}")
    return value


def _check_finite_number(value: Any, name: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
