"""Synthetic workload generators.

The experimental section of the paper uses randomly generated graphs "whose
parameters are consistent with those used in the literature": 50–150 tasks,
granularity varied from 0.2 to 2.0, message volumes in [50, 150].  This module
provides:

* :func:`random_layered_dag` — the classic layer-by-layer random DAG generator
  used by most scheduling papers;
* :func:`random_series_parallel` — random series-parallel graphs, used to test
  the communication-count property of the one-to-one mapping (Section 4.2);
* :func:`chain_graph` / :func:`fork_join_graph` — simple structured topologies;
* :func:`random_paper_workload` — the full experimental workload: a random
  layered DAG plus a random heterogeneous platform, with task works rescaled so
  that the achieved granularity ``g(G, P)`` exactly matches the requested
  target.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.analysis import granularity
from repro.graph.dag import TaskGraph
from repro.graph.task import Task
from repro.platform.builders import paper_platform
from repro.platform.platform import Platform
from repro.utils.checks import check_positive, check_probability
from repro.utils.rng import ensure_rng, uniform_float, uniform_int

__all__ = [
    "LayeredDagConfig",
    "random_layered_dag",
    "random_series_parallel",
    "chain_graph",
    "fork_join_graph",
    "random_paper_workload",
    "PaperWorkload",
]


# ----------------------------------------------------------------- layered DAG
@dataclass
class LayeredDagConfig:
    """Parameters of the layered random-DAG generator.

    Attributes
    ----------
    num_tasks:
        Total number of tasks (drawn in [50, 150] by the paper).
    work_range:
        Uniform range of task works before any granularity rescaling.
    volume_range:
        Uniform range of edge communication volumes ([50, 150] in the paper).
    mean_layer_width:
        Average number of tasks per layer; controls the depth/width trade-off.
    edge_probability:
        Probability of adding an edge between a task and each candidate task of
        the previous layer (on top of the one mandatory edge keeping the graph
        connected).
    skip_probability:
        Probability of adding "skip" edges jumping over one or more layers.
    name:
        Name given to the generated graph.
    """

    num_tasks: int = 100
    work_range: tuple[float, float] = (50.0, 150.0)
    volume_range: tuple[float, float] = (50.0, 150.0)
    mean_layer_width: float = 10.0
    edge_probability: float = 0.2
    skip_probability: float = 0.05
    name: str = "random-layered"

    def __post_init__(self) -> None:
        if self.num_tasks < 1:
            raise ValueError(f"num_tasks must be >= 1, got {self.num_tasks}")
        check_positive(self.work_range[0], "work_range low")
        check_positive(self.volume_range[0], "volume_range low")
        if self.work_range[1] < self.work_range[0]:
            raise ValueError("work_range must be (low, high) with low <= high")
        if self.volume_range[1] < self.volume_range[0]:
            raise ValueError("volume_range must be (low, high) with low <= high")
        check_positive(self.mean_layer_width, "mean_layer_width")
        check_probability(self.edge_probability, "edge_probability")
        check_probability(self.skip_probability, "skip_probability")


def random_layered_dag(
    config: LayeredDagConfig | None = None,
    seed: int | np.random.Generator | None = None,
    **overrides,
) -> TaskGraph:
    """Generate a random layered DAG.

    Tasks are split into consecutive layers; every non-entry task receives at
    least one predecessor from the previous layer (so the graph is weakly
    connected and every non-first-layer task has a predecessor), plus extra
    edges drawn with ``edge_probability`` and longer-range skip edges drawn
    with ``skip_probability``.
    """
    if config is None:
        config = LayeredDagConfig(**overrides)
    elif overrides:
        raise TypeError("pass either a LayeredDagConfig or keyword overrides, not both")
    rng = ensure_rng(seed)

    graph = TaskGraph(config.name)
    names = [f"t{i + 1}" for i in range(config.num_tasks)]
    for name in names:
        graph.add_task(Task(name, uniform_float(rng, *config.work_range)))

    # Partition tasks into layers.  Graphs of more than one task always get at
    # least two layers so that the result has at least one edge (otherwise the
    # notion of granularity would be undefined).
    layers: list[list[str]] = []
    remaining = list(names)
    while remaining:
        width = max(1, int(round(rng.normal(config.mean_layer_width, config.mean_layer_width / 3))))
        if not layers and config.num_tasks > 1:
            width = min(width, config.num_tasks - 1)
        width = min(width, len(remaining))
        layers.append(remaining[:width])
        remaining = remaining[width:]

    def add_volume_edge(src: str, dst: str) -> None:
        if not graph.has_edge(src, dst):
            graph.add_edge(src, dst, uniform_float(rng, *config.volume_range))

    for li in range(1, len(layers)):
        prev = layers[li - 1]
        for task in layers[li]:
            mandatory = prev[int(rng.integers(len(prev)))]
            add_volume_edge(mandatory, task)
            for cand in prev:
                if cand != mandatory and rng.random() < config.edge_probability:
                    add_volume_edge(cand, task)
            # long-range skip edges
            for lj in range(0, li - 1):
                if rng.random() < config.skip_probability:
                    src = layers[lj][int(rng.integers(len(layers[lj])))]
                    add_volume_edge(src, task)

    graph.validate()
    return graph


# ------------------------------------------------------------- series-parallel
def random_series_parallel(
    depth: int = 4,
    seed: int | np.random.Generator | None = None,
    work_range: tuple[float, float] = (50.0, 150.0),
    volume_range: tuple[float, float] = (50.0, 150.0),
    max_branches: int = 3,
    name: str = "random-sp",
) -> TaskGraph:
    """Generate a random two-terminal series-parallel DAG by recursive expansion.

    Starting from a single source→sink edge, each expansion step replaces an
    edge either by a series composition (insert an intermediate task) or by a
    parallel composition (duplicate the edge through 2..``max_branches``
    intermediate tasks).  The result always has a single entry and a single
    exit task, and satisfies the structural condition under which the
    one-to-one mapping reduces communications to ``e(ε+1)``.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if max_branches < 2:
        raise ValueError(f"max_branches must be >= 2, got {max_branches}")
    rng = ensure_rng(seed)

    counter = [0]

    def new_task() -> str:
        counter[0] += 1
        return f"t{counter[0]}"

    source, sink = new_task(), new_task()
    edges: list[tuple[str, str]] = [(source, sink)]
    tasks: set[str] = {source, sink}

    for _ in range(depth):
        new_edges: list[tuple[str, str]] = []
        for src, dst in edges:
            choice = rng.random()
            if choice < 0.45:  # series composition
                mid = new_task()
                tasks.add(mid)
                new_edges.extend([(src, mid), (mid, dst)])
            elif choice < 0.8:  # parallel composition
                branches = int(rng.integers(2, max_branches + 1))
                for _ in range(branches):
                    mid = new_task()
                    tasks.add(mid)
                    new_edges.extend([(src, mid), (mid, dst)])
            else:  # keep as is
                new_edges.append((src, dst))
        edges = new_edges

    graph = TaskGraph(name)
    for t in sorted(tasks, key=lambda s: int(s[1:])):
        graph.add_task(Task(t, uniform_float(rng, *work_range)))
    seen = set()
    for src, dst in edges:
        if (src, dst) not in seen:
            seen.add((src, dst))
            graph.add_edge(src, dst, uniform_float(rng, *volume_range))
    graph.validate()
    return graph


# --------------------------------------------------------- simple structures
def chain_graph(length: int, work: float = 100.0, volume: float = 100.0, name: str = "chain") -> TaskGraph:
    """A linear pipeline of *length* tasks (the simplest streaming application)."""
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    graph = TaskGraph(name)
    prev = None
    for i in range(length):
        t = graph.add_task(Task(f"t{i + 1}", work))
        if prev is not None:
            graph.add_edge(prev.name, t.name, volume)
        prev = t
    return graph


def fork_join_graph(
    branches: int,
    branch_length: int = 1,
    work: float = 100.0,
    volume: float = 100.0,
    name: str = "fork-join",
) -> TaskGraph:
    """A fork-join graph: one source fans out to *branches* parallel chains of
    *branch_length* tasks, which all join into a single sink."""
    if branches < 1:
        raise ValueError(f"branches must be >= 1, got {branches}")
    if branch_length < 1:
        raise ValueError(f"branch_length must be >= 1, got {branch_length}")
    graph = TaskGraph(name)
    src = graph.add_task(Task("source", work))
    sink = graph.add_task(Task("sink", work))
    for b in range(branches):
        prev = src
        for i in range(branch_length):
            t = graph.add_task(Task(f"b{b + 1}_{i + 1}", work))
            graph.add_edge(prev.name, t.name, volume)
            prev = t
        graph.add_edge(prev.name, sink.name, volume)
    return graph


# ----------------------------------------------------------- paper workloads
@dataclass
class PaperWorkload:
    """A (graph, platform) pair matching the experimental setup of Section 5."""

    graph: TaskGraph
    platform: Platform
    target_granularity: float
    seed: int | None = None
    metadata: dict = field(default_factory=dict)

    @property
    def achieved_granularity(self) -> float:
        """Granularity actually measured on the generated instance."""
        return granularity(self.graph, self.platform)

    @property
    def mean_task_time(self) -> float:
        """Mean task execution time at the platform's average speed — the
        normalization unit used by the experiments (see
        :mod:`repro.experiments.config`)."""
        return float(
            np.mean([t.work for t in self.graph.tasks]) * self.platform.mean_inverse_speed
        )


def random_paper_workload(
    target_granularity: float,
    seed: int | np.random.Generator | None = None,
    num_tasks: int | None = None,
    num_processors: int = 20,
    task_range: tuple[int, int] = (50, 150),
    config: LayeredDagConfig | None = None,
) -> PaperWorkload:
    """Generate one random instance of the paper's experimental workload.

    The number of tasks is drawn uniformly in ``task_range`` (unless
    *num_tasks* is forced), the platform is the 20-processor heterogeneous
    platform of Section 5, and the task works are rescaled multiplicatively so
    that the achieved granularity ``g(G, P)`` equals *target_granularity*
    exactly.
    """
    check_positive(target_granularity, "target_granularity")
    rng = ensure_rng(seed)
    if num_tasks is None:
        num_tasks = uniform_int(rng, *task_range)
    platform = paper_platform(seed=rng, m=num_processors)
    if config is None:
        config = LayeredDagConfig(num_tasks=num_tasks, name=f"paper-g{target_granularity:g}")
    else:
        config.num_tasks = num_tasks
    graph = random_layered_dag(config, seed=rng)

    achieved = granularity(graph, platform)
    if not np.isfinite(achieved) or achieved <= 0:
        raise ValueError("generated graph has no communication edge; cannot set granularity")
    factor = target_granularity / achieved
    graph = graph.scaled(work_factor=factor)

    return PaperWorkload(
        graph=graph,
        platform=platform,
        target_granularity=float(target_granularity),
        seed=None if isinstance(seed, np.random.Generator) else seed,
        metadata={"num_tasks": num_tasks, "num_processors": num_processors},
    )
