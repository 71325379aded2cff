"""Unit tests for the platform model."""

from fractions import Fraction

import numpy as np
import pytest

from repro.exceptions import PlatformError
from repro.graph.analysis import task_priorities
from repro.graph.examples import figure2_graph
from repro.platform.builders import (
    figure1_platform,
    figure2_platform,
    heterogeneous_platform,
    homogeneous_platform,
    paper_platform,
)
from repro.platform.platform import Platform
from repro.platform.processor import Processor


class TestProcessor:
    def test_execution_time(self):
        assert Processor("P1", 2.0).execution_time(10.0) == 5.0

    def test_invalid_speed(self):
        with pytest.raises(ValueError):
            Processor("P1", 0.0)

    def test_invalid_name(self):
        with pytest.raises(ValueError):
            Processor("", 1.0)


class TestPlatform:
    def test_requires_processors(self):
        with pytest.raises(PlatformError):
            Platform([])

    def test_duplicate_names_rejected(self):
        with pytest.raises(PlatformError):
            Platform([Processor("P1"), Processor("P1")])

    def test_uniform_bandwidth(self):
        p = Platform([Processor("P1"), Processor("P2")], bandwidths=4.0)
        assert p.bandwidth("P1", "P2") == 4.0
        assert p.communication_time(8.0, "P1", "P2") == 2.0

    def test_local_communication_is_free(self, homo4):
        assert homo4.communication_time(100.0, "P1", "P1") == 0.0
        assert homo4.bandwidth("P1", "P1") == float("inf")

    def test_per_link_bandwidths(self):
        p = Platform(
            [Processor("P1"), Processor("P2"), Processor("P3")],
            bandwidths={("P1", "P2"): 2.0},
            default_bandwidth=1.0,
        )
        assert p.bandwidth("P1", "P2") == 2.0
        assert p.bandwidth("P2", "P1") == 2.0  # symmetric by default
        assert p.bandwidth("P1", "P3") == 1.0

    def test_asymmetric_link(self):
        p = Platform([Processor("P1"), Processor("P2")])
        p.set_bandwidth("P1", "P2", 5.0, symmetric=False)
        assert p.bandwidth("P1", "P2") == 5.0
        assert p.bandwidth("P2", "P1") == 1.0

    def test_unknown_processor(self, homo4):
        with pytest.raises(PlatformError):
            homo4.speed("P99")
        with pytest.raises(PlatformError):
            homo4.bandwidth("P1", "P99")

    def test_speed_statistics(self):
        p = Platform([Processor("P1", 1.0), Processor("P2", 2.0)])
        assert p.min_speed == 1.0
        assert p.max_speed == 2.0
        assert p.mean_inverse_speed == pytest.approx(0.75)
        assert p.fastest_processor == "P2"

    def test_mean_inverse_speed_is_cached_exactly(self, hetero8):
        expected = float((1.0 / hetero8.speeds).mean())
        assert hetero8.mean_inverse_speed == expected
        assert hetero8.mean_inverse_speed == expected  # the cached read
        subset = hetero8.subset(hetero8.processor_names[:3])
        assert subset.mean_inverse_speed == float((1.0 / subset.speeds).mean())

    def test_execution_time(self, homo4):
        assert homo4.execution_time(10.0, "P1") == 10.0

    def test_subset(self, homo4):
        sub = homo4.subset(["P1", "P3"])
        assert sub.num_processors == 2
        assert "P2" not in sub

    def test_contains_and_iter(self, homo4):
        assert "P1" in homo4
        assert len(list(homo4)) == 4


class TestBandwidthArgument:
    PROCS = [Processor("P1"), Processor("P2")]

    @pytest.mark.parametrize(
        "value", [2, 2.0, np.int64(2), np.float32(2.0), np.float64(2.0), Fraction(2)]
    )
    def test_any_real_scalar_sets_the_uniform_bandwidth(self, value):
        p = Platform(self.PROCS, bandwidths=value)
        assert p.bandwidth("P1", "P2") == 2.0
        assert type(p.bandwidth("P1", "P2")) is float

    @pytest.mark.parametrize("value", [True, False, np.bool_(True)])
    def test_bool_is_not_a_bandwidth(self, value):
        with pytest.raises(PlatformError, match="bandwidths must be"):
            Platform(self.PROCS, bandwidths=value)

    @pytest.mark.parametrize("value", ["2", [2.0], ((("P1", "P2"), 2.0),), 2j])
    def test_non_mapping_rejected_with_platform_error(self, value):
        with pytest.raises(PlatformError, match="bandwidths must be"):
            Platform(self.PROCS, bandwidths=value)

    def test_non_positive_scalar_rejected(self):
        with pytest.raises(ValueError):
            Platform(self.PROCS, bandwidths=np.int64(0))


class TestBandwidthCaches:
    """Every cached view of the links follows set_bandwidth."""

    def _platforms(self):
        procs = [Processor(f"P{i}", 1.0 + i / 4) for i in range(1, 5)]
        changed = Platform(procs, bandwidths=2.0)
        changed.min_bandwidth, changed.mean_inverse_bandwidth  # fill the caches
        changed.link_bandwidths()
        changed.set_bandwidth("P1", "P3", 0.5)
        fresh = Platform(procs, bandwidths={("P1", "P3"): 0.5}, default_bandwidth=2.0)
        return changed, fresh

    def test_link_statistics_reflect_the_new_link(self):
        changed, fresh = self._platforms()
        assert changed.min_bandwidth == fresh.min_bandwidth == 0.5
        assert changed.mean_inverse_bandwidth == fresh.mean_inverse_bandwidth
        assert changed.link_bandwidths() == fresh.link_bandwidths()
        assert changed.link_bandwidths()[("P3", "P1")] == 0.5

    def test_task_priorities_reflect_the_new_link(self):
        graph = figure2_graph()
        changed, fresh = self._platforms()
        before = task_priorities(graph, Platform(changed.processors, bandwidths=2.0))
        after = task_priorities(graph, changed)
        assert after == task_priorities(graph, fresh)
        assert after != before

    def test_schedule_transfer_times_follow_a_bandwidth_change(self):
        from repro.schedule.replica import Replica
        from repro.schedule.schedule import Schedule, plan_placement

        graph = figure2_graph()
        platform = Platform([Processor(f"P{i}") for i in range(1, 4)], bandwidths=1.0)
        schedule = Schedule(graph, platform, period=100.0)
        schedule.apply_placement(plan_placement(schedule, "t1", "P1", {}))
        volume = graph.volume("t1", "t2")
        sources = {"t1": [Replica("t1", 1)]}
        plan = plan_placement(schedule, "t2", "P2", sources)
        assert plan.comms[0].duration == volume
        assert schedule.transfer_time(volume, "P1", "P2") == volume
        platform.set_bandwidth("P1", "P2", 4.0)
        plan = plan_placement(schedule, "t2", "P2", sources)
        assert plan.comms[0].duration == volume / 4.0
        assert schedule.transfer_time(volume, "P1", "P2") == volume / 4.0
        assert schedule.transfer_time(volume, "P1", "P1") == 0.0


class TestBuilders:
    def test_homogeneous(self):
        p = homogeneous_platform(5, speed=2.0, bandwidth=3.0)
        assert p.num_processors == 5
        assert set(p.speeds) == {2.0}
        assert p.bandwidth("P1", "P5") == 3.0

    def test_homogeneous_invalid(self):
        with pytest.raises(ValueError):
            homogeneous_platform(0)

    def test_heterogeneous_ranges(self):
        p = heterogeneous_platform(10, speed_range=(0.5, 1.0), delay_range=(0.5, 1.0), seed=1)
        assert all(0.5 <= s <= 1.0 for s in p.speeds)
        for a in p.processor_names[:3]:
            for b in p.processor_names[:3]:
                if a != b:
                    assert 1.0 <= p.bandwidth(a, b) <= 2.0  # delay in [0.5, 1]

    def test_heterogeneous_determinism(self):
        a = heterogeneous_platform(6, seed=9)
        b = heterogeneous_platform(6, seed=9)
        assert list(a.speeds) == list(b.speeds)
        assert a.bandwidth("P1", "P2") == b.bandwidth("P1", "P2")

    def test_paper_platform_defaults(self):
        p = paper_platform(seed=0)
        assert p.num_processors == 20

    def test_figure1_platform_speeds(self):
        p = figure1_platform()
        assert p.speed("P1") == 1.5
        assert p.speed("P2") == 1.0
        assert p.bandwidth("P1", "P4") == 1.0

    def test_figure2_platform_is_homogeneous(self):
        p = figure2_platform(8)
        assert p.num_processors == 8
        assert set(p.speeds) == {1.0}
