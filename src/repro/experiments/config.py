"""Experimental configuration (Section 5 of the paper).

The paper's setup: random graphs of 50–150 tasks, granularity varied from 0.2
to 2.0 in steps of 0.2, 20 processors, unit message delays in [0.5, 1],
message volumes in [50, 150], desired throughput ``1/(10(ε+1))``, ``ε ∈ {1, 3}``,
60 random graphs per point.

Two calibration details are unit-dependent in the paper and are made explicit
here:

* the **period** of a workload is ``slack · max(compute bound, communication
  bound)`` where the bounds are the average per-processor replicated compute
  and communication loads — for computation-dominated graphs this reduces to
  the paper's ``10(ε+1)`` average task durations per processor, and for
  communication-dominated graphs it keeps the constraint binding but feasible
  under the one-port model;
* the **normalization unit** of the latency is the mean task execution time of
  the workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.graph.generator import PaperWorkload
from repro.utils.checks import check_positive

__all__ = ["ExperimentConfig", "paper_config", "bench_config", "workload_period"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one experimental campaign."""

    granularities: tuple[float, ...] = tuple(round(0.2 * i, 1) for i in range(1, 11))
    num_graphs: int = 60
    num_processors: int = 20
    task_range: tuple[int, int] = (50, 150)
    crash_samples: int = 10
    period_slack: float = 2.0
    comm_period_factor: float = 2.0
    seed: int = 2009
    strict_resilience: bool = False

    def __post_init__(self) -> None:
        if not self.granularities:
            raise ValueError("granularities must not be empty")
        for g in self.granularities:
            check_positive(g, "granularity")
        if self.num_graphs < 1:
            raise ValueError(f"num_graphs must be >= 1, got {self.num_graphs}")
        if self.num_processors < 2:
            raise ValueError(f"num_processors must be >= 2, got {self.num_processors}")
        if self.task_range[0] < 1 or self.task_range[1] < self.task_range[0]:
            raise ValueError(f"invalid task_range {self.task_range}")
        if self.crash_samples < 1:
            raise ValueError(f"crash_samples must be >= 1, got {self.crash_samples}")
        check_positive(self.period_slack, "period_slack")
        check_positive(self.comm_period_factor, "comm_period_factor")

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """A copy of the configuration with some fields replaced."""
        return replace(self, **kwargs)

    def crash_counts(self, epsilon: int) -> tuple[int, ...]:
        """The crash counts evaluated for a given ε, as in the paper:
        ``c ∈ {0, 1}`` for ``ε = 1`` and ``c ∈ {0, 2}`` for ``ε = 3``."""
        if epsilon <= 0:
            return (0,)
        return (0, 1) if epsilon == 1 else (0, epsilon - 1)


def paper_config(**overrides) -> ExperimentConfig:
    """The full-scale configuration of the paper (60 graphs per point)."""
    return ExperimentConfig(**overrides)


def bench_config(**overrides) -> ExperimentConfig:
    """Reduced configuration of the figure and study commands.

    Two graphs per point (the commands' ``--graphs`` overrides it), five
    granularities and graphs at the small end of the paper's range, so that a
    study runs in minutes; the curve shapes are stable at this scale.
    """
    defaults = dict(
        granularities=(0.2, 0.6, 1.0, 1.4, 2.0),
        num_graphs=2,
        task_range=(50, 70),
        crash_samples=3,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def workload_period(workload: PaperWorkload, epsilon: int, config: ExperimentConfig) -> float:
    """Iteration period ``Δ`` assigned to a workload for a given ``ε``.

    ``Δ = slack · (ε+1) · max(compute bound, comm_factor · communication bound)``
    with the bounds expressed per processor; see the module docstring.
    """
    graph, platform = workload.graph, workload.platform
    m = platform.num_processors
    compute_bound = graph.total_work * platform.mean_inverse_speed / m
    comm_bound = (
        config.comm_period_factor
        * sum(vol for _, _, vol in graph.edges())
        * platform.mean_inverse_bandwidth
        / m
    )
    return config.period_slack * (epsilon + 1) * max(compute_bound, comm_bound)
