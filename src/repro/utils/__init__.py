"""Small generic utilities shared across the library.

* :mod:`repro.utils.rng` — deterministic random-number helpers.
* :mod:`repro.utils.intervals` — busy-interval timelines used to enforce the
  one-port communication model.
* :mod:`repro.utils.checks` — argument validation helpers.
* :mod:`repro.utils.ascii` — plain-text tables and plots for experiment reports.
"""

from repro import _lazy_exports

# Loaded on first access: a command that only formats a table (``cache ls``)
# must not import numpy through the random-number helpers.
_EXPORTS = {
    "repro.utils.rng": ("ensure_rng", "spawn_rngs"),
    "repro.utils.intervals": ("Interval", "Timeline", "earliest_common_slot"),
    "repro.utils.checks": (
        "check_positive", "check_non_negative", "check_probability", "check_type",
    ),
    "repro.utils.ascii": ("format_table", "ascii_plot"),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [name for names in _EXPORTS.values() for name in names]
