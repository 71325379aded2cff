"""Unit tests for the application-graph substrate (Task, TaskGraph, analysis)."""

import pytest

from repro.exceptions import CycleError, GraphError
from repro.graph.analysis import (
    bottom_levels,
    critical_path,
    critical_path_length,
    granularity,
    graph_width,
    level_width,
    summarize,
    task_priorities,
    top_levels,
)
from repro.graph.dag import TaskGraph
from repro.graph.examples import (
    dsp_filter_bank,
    figure1_graph,
    figure2_graph,
    map_reduce_graph,
    sensor_fusion_graph,
    video_encoding_pipeline,
)
from repro.graph.task import Task
from repro.platform.builders import figure2_platform, heterogeneous_platform


class TestTask:
    def test_execution_time_scales_with_speed(self):
        t = Task("a", 30.0)
        assert t.execution_time(2.0) == 15.0
        assert t.execution_time(0.5) == 60.0

    def test_rejects_non_positive_work(self):
        with pytest.raises(ValueError):
            Task("a", 0.0)

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            Task("", 1.0)

    def test_attributes_not_part_of_identity(self):
        assert Task("a", 1.0, {"k": 1}) == Task("a", 1.0, {"k": 2})


class TestTaskGraph:
    def test_add_task_by_name_and_work(self):
        g = TaskGraph()
        g.add_task("a", 3.0)
        assert g.work("a") == 3.0

    def test_add_duplicate_task_rejected(self):
        g = TaskGraph()
        g.add_task("a", 1.0)
        with pytest.raises(GraphError):
            g.add_task("a", 2.0)

    def test_add_edge_unknown_task_rejected(self):
        g = TaskGraph()
        g.add_task("a", 1.0)
        with pytest.raises(GraphError):
            g.add_edge("a", "b", 1.0)

    def test_self_loop_rejected(self):
        g = TaskGraph()
        g.add_task("a", 1.0)
        with pytest.raises(GraphError):
            g.add_edge("a", "a", 1.0)

    def test_duplicate_edge_rejected(self):
        g = TaskGraph.from_edges({"a": 1, "b": 1}, [("a", "b", 1.0)])
        with pytest.raises(GraphError):
            g.add_edge("a", "b", 2.0)

    def test_counts(self, fig2):
        assert fig2.num_tasks == 7
        assert fig2.num_edges == 9
        assert len(fig2) == 7

    def test_entry_and_exit(self, fig2):
        assert fig2.entry_tasks() == ("t1",)
        assert fig2.exit_tasks() == ("t7",)

    def test_predecessors_successors(self, fig2):
        assert set(fig2.predecessors("t6")) == {"t2", "t4", "t5"}
        assert set(fig2.successors("t3")) == {"t4", "t5", "t7"}
        assert fig2.in_degree("t1") == 0
        assert fig2.out_degree("t7") == 0

    def test_volume_lookup(self, fig2):
        assert fig2.volume("t1", "t2") == 2.0
        with pytest.raises(GraphError):
            fig2.volume("t2", "t1")

    def test_topological_order_respects_edges(self, fig2):
        order = fig2.topological_order()
        pos = {t: i for i, t in enumerate(order)}
        for src, dst, _ in fig2.edges():
            assert pos[src] < pos[dst]

    def test_reverse_topological_order(self, fig2):
        assert fig2.reverse_topological_order() == tuple(reversed(fig2.topological_order()))

    def test_cycle_detection(self):
        g = TaskGraph.from_edges({"a": 1, "b": 1}, [("a", "b", 1.0)])
        g.add_edge("b", "a", 1.0)
        with pytest.raises(CycleError):
            g.topological_order()

    def test_validate_empty_graph(self):
        with pytest.raises(GraphError):
            TaskGraph().validate()

    def test_total_work_and_volume(self, fig2):
        assert fig2.total_work == pytest.approx(72.0)
        assert fig2.total_volume == pytest.approx(18.0)

    def test_networkx_round_trip(self, fig2):
        pytest.importorskip("networkx")  # an optional dependency
        g2 = TaskGraph.from_networkx(fig2.to_networkx())
        assert g2.num_tasks == fig2.num_tasks
        assert g2.num_edges == fig2.num_edges
        assert g2.work("t3") == fig2.work("t3")

    def test_reversed_graph(self, fig2):
        rev = fig2.reversed()
        assert rev.num_edges == fig2.num_edges
        assert set(rev.predecessors("t7")) == set()
        assert set(rev.successors("t7")) == set(fig2.predecessors("t7"))
        assert rev.entry_tasks() == fig2.exit_tasks()

    def test_scaled_graph(self, fig2):
        scaled = fig2.scaled(work_factor=2.0, volume_factor=0.5)
        assert scaled.work("t1") == 30.0
        assert scaled.volume("t1", "t2") == 1.0

    def test_copy_independent(self, fig2):
        clone = fig2.copy()
        clone.add_task("extra", 1.0)
        assert "extra" not in fig2


class TestAnalysis:
    def test_bottom_levels_exit_is_own_work(self, fig2):
        bl = bottom_levels(fig2)
        assert bl["t7"] == 15.0

    def test_bottom_levels_monotone_along_edges(self, fig2):
        bl = bottom_levels(fig2)
        for src, dst, _ in fig2.edges():
            assert bl[src] > bl[dst]

    def test_top_levels_entry_is_zero(self, fig2):
        assert top_levels(fig2)["t1"] == 0.0

    def test_priorities_max_is_critical_path(self, fig2):
        prio = task_priorities(fig2)
        assert max(prio.values()) == pytest.approx(critical_path_length(fig2))

    def test_critical_path_is_a_path(self, fig2):
        path = critical_path(fig2)
        assert path[0] in fig2.entry_tasks()
        assert path[-1] in fig2.exit_tasks()
        for a, b in zip(path, path[1:]):
            assert fig2.has_edge(a, b)

    def test_granularity_unit_platform(self, fig2):
        assert granularity(fig2) == pytest.approx(72.0 / 18.0)

    def test_granularity_with_platform(self, fig2):
        platform = figure2_platform(4)
        assert granularity(fig2, platform) == pytest.approx(4.0)

    def test_granularity_no_edges_is_infinite(self):
        g = TaskGraph()
        g.add_task("a", 1.0)
        assert granularity(g) == float("inf")

    def test_width_of_chain_is_one(self, chain6):
        assert graph_width(chain6) == 1

    def test_width_of_fork_join(self, forkjoin):
        # three parallel branches of length 2 -> width 3
        assert graph_width(forkjoin) == 3

    def test_level_width_lower_bound(self, fig2):
        assert level_width(fig2) <= graph_width(fig2)

    def test_width_figure2(self, fig2):
        assert graph_width(fig2) == 3

    def test_heterogeneous_levels_use_average_times(self, fig2):
        platform = heterogeneous_platform(5, seed=3)
        bl_unit = bottom_levels(fig2)
        bl_het = bottom_levels(fig2, platform)
        # average inverse speed > 1 for speeds in [0.5, 1], so levels grow
        assert all(bl_het[t] > bl_unit[t] for t in fig2.task_names)

    def test_summarize_keys(self, fig2):
        info = summarize(fig2)
        assert info["tasks"] == 7
        assert info["edges"] == 9
        assert info["width"] == 3
        assert info["granularity"] == pytest.approx(4.0)


class TestExampleGraphs:
    @pytest.mark.parametrize(
        "factory",
        [
            figure1_graph,
            figure2_graph,
            video_encoding_pipeline,
            dsp_filter_bank,
            map_reduce_graph,
            sensor_fusion_graph,
        ],
    )
    def test_examples_are_valid_dags(self, factory):
        graph = factory()
        graph.validate()
        assert graph.num_tasks >= 4
        assert graph.entry_tasks()
        assert graph.exit_tasks()

    def test_figure1_structure(self, diamond):
        assert diamond.num_tasks == 4
        assert all(t.work == 15.0 for t in diamond.tasks)
        assert all(vol == 2.0 for _, _, vol in diamond.edges())

    def test_figure2_readiness_order_matches_paper(self, fig2):
        # top-down: t1 alone, then {t2, t3}, then {t4, t5}, then {t6}, then {t7}
        assert set(fig2.successors("t1")) == {"t2", "t3"}
        assert set(fig2.predecessors("t4")) == {"t3"}
        assert set(fig2.predecessors("t7")) == {"t3", "t6"}

    def test_video_pipeline_scales_with_blocks(self):
        assert video_encoding_pipeline(2).num_tasks < video_encoding_pipeline(6).num_tasks

    def test_dsp_filter_bank_channels(self):
        g = dsp_filter_bank(channels=3, taps=2)
        assert sum(1 for t in g.task_names if t.startswith("fir_")) == 6

    def test_map_reduce_edges(self):
        g = map_reduce_graph(mappers=4, reducers=2)
        assert g.num_edges == 4 + 4 * 2 + 2

    def test_invalid_example_parameters(self):
        with pytest.raises(ValueError):
            video_encoding_pipeline(0)
        with pytest.raises(ValueError):
            dsp_filter_bank(channels=0)
        with pytest.raises(ValueError):
            map_reduce_graph(mappers=0)
        with pytest.raises(ValueError):
            sensor_fusion_graph(0)
