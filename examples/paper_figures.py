#!/usr/bin/env python3
"""Regenerate the paper's worked examples and a reduced version of its figures.

This is the scripted equivalent of the CLI (``python -m repro ...``): it prints
the Figure 1 / Figure 2 tables and a reduced-scale version of Figure 3(a) and
Figure 3(c).  Both panels read the ε=1 campaign from the result cache of the
CLI (``$REPRO_CACHE_DIR`` moves it), so it is computed once and a second run
of this script executes nothing.  For the full-scale figures (60 graphs per
point) use::

    python -m repro figure3a --paper-scale

Run with::

    python examples/paper_figures.py
"""

from __future__ import annotations

from repro.cache import default_cache_dir
from repro.experiments.config import bench_config
from repro.experiments.figures import figure3a, figure3c
from repro.experiments.reporting import render_example_rows, render_series
from repro.experiments.tables import figure1_scenarios, figure2_example


def main() -> None:
    print(render_example_rows(figure1_scenarios(), "Figure 1 — execution scenarios"))
    print()
    print(render_example_rows(figure2_example(), "Figure 2 — LTF vs R-LTF"))
    print()

    config = bench_config(num_graphs=2)
    cache = default_cache_dir()
    print(render_series(figure3a(config, cache=cache)))
    print()
    print(render_series(figure3c(config, cache=cache)))


if __name__ == "__main__":
    main()
