"""Unit tests for crash scenarios, fault processes, trace I/O and offline runs.

The second half of the file is the fault-model *statistical harness*: seeded
large-sample checks that the declared laws hold (exponential and Weibull
inter-failure means equal ``mttf``, repair delays equal ``mttr``), plus the
frozen fingerprint goldens under ``tests/golden/`` that pin every sampling
regime bit-for-bit across refactors.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest
from conftest import offline_run

from repro.core.ltf import ltf_schedule
from repro.core.rltf import rltf_schedule
from repro.exceptions import FaultTraceError, ScheduleError
from repro.failures.evaluation import crash_latency, evaluate_crashes, expected_crash_latency
from repro.failures.processes import (
    ElasticFaultProcess,
    RenewalFaultProcess,
    resolve_groups,
)
from repro.failures.scenarios import (
    CrashScenario,
    FaultEvent,
    FaultTrace,
    all_crash_scenarios,
    sample_crash_scenarios,
    sample_fault_trace,
)
from repro.failures.trace_io import dump_fault_trace, load_fault_trace
from repro.graph.generator import chain_graph
from repro.platform.builders import (
    figure2_platform,
    heterogeneous_platform,
    homogeneous_platform,
)
from repro.runtime.engine import OnlineRuntime
from repro.schedule.metrics import latency_upper_bound
from repro.schedule.stages import num_stages


@pytest.fixture
def replicated(fig2, fig2_platform):
    return ltf_schedule(fig2, fig2_platform, throughput=0.05, epsilon=1)


class TestScenarios:
    def test_scenario_basics(self, fig2_platform):
        sc = CrashScenario(frozenset({"P1", "P2"}))
        assert sc.count == 2
        assert not sc.is_alive("P1")
        assert sc.is_alive("P3")
        assert len(sc.alive(fig2_platform)) == 8

    def test_sampling_counts_and_distinctness(self, fig2_platform):
        scenarios = sample_crash_scenarios(fig2_platform, crashes=3, count=20, seed=0)
        assert len(scenarios) == 20
        assert all(sc.count == 3 for sc in scenarios)

    def test_sampling_determinism(self, fig2_platform):
        a = sample_crash_scenarios(fig2_platform, 2, 5, seed=1)
        b = sample_crash_scenarios(fig2_platform, 2, 5, seed=1)
        assert a == b

    def test_sampling_validation(self, fig2_platform):
        with pytest.raises(ValueError):
            sample_crash_scenarios(fig2_platform, -1, 1)
        with pytest.raises(ValueError):
            sample_crash_scenarios(fig2_platform, 11, 1)

    def test_all_scenarios_enumeration(self):
        platform = homogeneous_platform(4)
        assert len(all_crash_scenarios(platform, 2)) == 6
        assert len(all_crash_scenarios(platform, 0)) == 1


class TestCrashLatency:
    def test_zero_crash_at_most_upper_bound(self, replicated):
        ev = crash_latency(replicated, CrashScenario(frozenset()))
        assert ev.latency <= latency_upper_bound(replicated) + 1e-9
        assert ev.stages >= 1

    def test_crash_latency_bounded_by_upper_bound(self, replicated):
        for sc in all_crash_scenarios(replicated.platform, 1):
            try:
                ev = crash_latency(replicated, sc)
            except ScheduleError:
                continue  # some crash pattern may orphan a task in paper mode
            assert ev.latency <= latency_upper_bound(replicated) + 1e-9

    def test_crash_of_unused_processor_changes_nothing(self, replicated):
        unused = set(replicated.platform.processor_names) - set(replicated.used_processors())
        if not unused:
            pytest.skip("all processors are used")
        baseline = crash_latency(replicated, CrashScenario(frozenset())).latency
        ev = crash_latency(replicated, CrashScenario(frozenset({unused.pop()})))
        assert ev.latency == pytest.approx(baseline)

    def test_on_invalid_upper_bound_fallback(self, replicated):
        # crash every used processor: no valid replica anywhere
        everything = frozenset(replicated.used_processors())
        with pytest.raises(ScheduleError):
            crash_latency(replicated, everything)
        ev = crash_latency(replicated, everything, on_invalid="upper_bound")
        assert ev.latency == pytest.approx(latency_upper_bound(replicated))

    def test_on_invalid_validation(self, replicated):
        with pytest.raises(ValueError):
            crash_latency(replicated, frozenset(), on_invalid="bogus")

    def test_evaluate_crashes_sample_count(self, replicated):
        evals = evaluate_crashes(replicated, crashes=1, samples=5, seed=3, on_invalid="upper_bound")
        assert len(evals) == 5
        assert all(ev.crashes == 1 for ev in evals)

    def test_expected_crash_latency_normalization(self, replicated):
        raw = expected_crash_latency(replicated, 0, unit=1.0)
        halved = expected_crash_latency(replicated, 0, unit=2.0)
        assert halved == pytest.approx(raw / 2.0)

    def test_expected_crash_latency_monotone_in_crashes(self, replicated):
        zero = expected_crash_latency(replicated, 0)
        one = expected_crash_latency(replicated, 1, samples=10, seed=0, on_invalid="upper_bound")
        assert one >= zero - 1e-9


class TestOfflineRun:
    """The offline simulation: one engine run under a fixed crash set."""

    def test_incomplete_schedule_rejected(self, fig2, fig2_platform):
        from repro.schedule.schedule import Schedule

        with pytest.raises(ScheduleError):
            offline_run(Schedule(fig2, fig2_platform, period=20.0), 4)

    def test_latencies_below_analytic_bound(self, replicated):
        trace = offline_run(replicated, 8)
        assert trace.num_datasets == trace.completed_count == 8
        assert trace.max_latency <= latency_upper_bound(replicated) + 1e-6

    def test_achieved_period_close_to_target(self, replicated):
        trace = offline_run(replicated, 12)
        assert trace.achieved_period <= replicated.period + 1e-6

    def test_steady_state_latency_positive(self, replicated):
        trace = offline_run(replicated, 6)
        assert trace.latencies[-1] > 0

    def test_simulation_with_crash_still_completes(self, replicated):
        used = replicated.used_processors()
        trace = offline_run(replicated, 6, failed=[used[0]])
        assert trace.completed_count == 6

    def test_simulation_rejects_fatal_crash_set(self, replicated):
        # the kernel refuses a crash set that leaves an exit task no replica
        with pytest.raises(ScheduleError, match="no valid replica"):
            offline_run(replicated, 4, failed=replicated.used_processors())

    def test_invalid_dataset_count(self, replicated):
        # a bool is not a count, and a float or NaN is not an int: all named
        runtime = OnlineRuntime(replicated, FaultTrace((), horizon=replicated.period))
        for bad in (0, -1, True, 2.5, math.nan):
            with pytest.raises(ValueError, match="num_datasets"):
                runtime.run(bad)

    def test_chain_simulation_matches_pipeline_model(self):
        graph = chain_graph(4, work=10.0, volume=1.0)
        platform = homogeneous_platform(4)
        schedule = rltf_schedule(graph, platform, period=12.0, epsilon=0)
        steady = offline_run(schedule, 10).latencies[-1]
        # the analytic model is (2S-1) * period; the event-driven execution can
        # only be faster because stages are not artificially synchronised.
        assert steady <= latency_upper_bound(schedule) + 1e-6
        assert steady >= graph.total_work / platform.max_speed - 1e-6


# ---------------------------------------------------------------- fault processes
class TestResolveGroups:
    def test_default_is_one_singleton_per_processor(self, homo4):
        assert resolve_groups(homo4, None) == tuple(
            (name,) for name in homo4.processor_names
        )

    def test_group_positioned_at_first_member_slot(self, homo4):
        names = homo4.processor_names
        groups = resolve_groups(homo4, [(names[1], names[3])])
        assert groups == ((names[0],), (names[1], names[3]), (names[2],))

    def test_exclude_removes_spares_from_groups(self, homo4):
        names = homo4.processor_names
        groups = resolve_groups(homo4, [(names[0], names[3])], exclude=(names[3],))
        assert groups == ((names[0],), (names[1],), (names[2],))

    def test_validation(self, homo4):
        with pytest.raises(ValueError, match="non-empty"):
            resolve_groups(homo4, [()])
        with pytest.raises(ValueError, match="unknown processor"):
            resolve_groups(homo4, [("P1", "ghost")])
        with pytest.raises(ValueError, match="more than one"):
            resolve_groups(homo4, [("P1", "P2"), ("P2", "P3")])


class TestRenewalProcess:
    def test_parameter_validation(self, homo4):
        with pytest.raises(ValueError):
            RenewalFaultProcess(homo4, horizon=-1.0, mttf=10.0)
        with pytest.raises(ValueError):
            RenewalFaultProcess(homo4, horizon=10.0, mttf=0.0)
        with pytest.raises(ValueError, match="distribution"):
            RenewalFaultProcess(homo4, horizon=10.0, mttf=10.0, distribution="zipf")
        with pytest.raises(ValueError, match="load_coupling"):
            RenewalFaultProcess(homo4, horizon=10.0, mttf=10.0, load_coupling=-0.5)
        with pytest.raises(ValueError):
            RenewalFaultProcess(homo4, horizon=10.0, mttf=10.0, mttr=-1.0)

    def test_grouped_members_crash_and_repair_together(self, homo4):
        names = homo4.processor_names
        trace = sample_fault_trace(
            homo4, horizon=500.0, mttf=20.0, mttr=5.0, seed=3,
            groups=[(names[0], names[1]), (names[2], names[3])],
        )
        assert trace.num_crashes > 0
        by_kind_time = {}
        for event in trace.events:
            by_kind_time.setdefault((event.kind, event.time), set()).add(event.processor)
        for (kind, time), members in by_kind_time.items():
            assert members in ({names[0], names[1]}, {names[2], names[3]}), (
                f"{kind}@{time} hit a partial group: {members}"
            )

    def test_hazard_multiplier_formula(self, homo4):
        names = homo4.processor_names
        util = {names[0]: 0.8, names[1]: 0.4}
        process = RenewalFaultProcess(
            homo4, horizon=100.0, mttf=10.0,
            load_coupling=2.0, utilization=util,
        )
        assert process._hazard((names[0],)) == pytest.approx(1.0 + 2.0 * 0.8)
        assert process._hazard((names[0], names[1])) == pytest.approx(1.0 + 2.0 * 0.6)
        assert process._hazard((names[2],)) == pytest.approx(1.0)  # unknown -> load 0


class TestElasticProcess:
    def test_parameter_validation(self, homo4):
        with pytest.raises(ValueError, match="spares"):
            ElasticFaultProcess(homo4, horizon=10.0, spares=-1, join_mean=1.0)
        with pytest.raises(ValueError, match="at least one active"):
            ElasticFaultProcess(homo4, horizon=10.0, spares=4, join_mean=1.0)
        with pytest.raises(ValueError, match="join_mean"):
            ElasticFaultProcess(homo4, horizon=10.0, spares=1)
        with pytest.raises(ValueError, match="join_mean"):
            ElasticFaultProcess(homo4, horizon=10.0, preempt_mean=5.0)

    def test_spares_are_last_declared_processors(self, homo4):
        process = ElasticFaultProcess(homo4, horizon=100.0, spares=2, join_mean=10.0)
        names = homo4.processor_names
        assert process.spare_names == names[2:]
        assert process.active_names == names[:2]
        assert process.initially_down == frozenset(names[2:])

    def test_spares_start_down_join_and_never_fail(self, homo4):
        names = homo4.processor_names
        trace = sample_fault_trace(
            homo4, horizon=2000.0, mttf=5.0, mttr=2.0, seed=0,
            spares=2, join_mean=10.0,
        )
        assert trace.initially_down == frozenset(names[2:])
        spare_kinds = {e.kind for e in trace.events if e.processor in names[2:]}
        assert spare_kinds <= {"join"}  # spares join once; renewal excludes them
        assert trace.failed_at(0.0) == frozenset(names[2:])

    def test_preemption_alternates_crash_join(self, homo4):
        trace = sample_fault_trace(
            homo4, horizon=3000.0, mttf=1e9, seed=1,
            spares=1, join_mean=5.0, preempt_mean=20.0,
        )
        for name in homo4.processor_names[:3]:
            kinds = [e.kind for e in trace.events if e.processor == name]
            # strict alternation starting with a crash
            assert kinds == ["crash", "join"] * (len(kinds) // 2) + (
                ["crash"] if len(kinds) % 2 else []
            )


# ------------------------------------------------------------ statistical harness
class TestStatisticalLaws:
    """Seeded large-sample checks that the declared fault laws hold.

    A single-processor platform makes the event stream a strict
    crash/repair alternation, so inter-failure and repair delays can be
    read straight off the trace.  Sample sizes are ~10^4, putting the
    standard error of each mean well under the 5% tolerance.
    """

    HORIZON = 40_000.0

    @staticmethod
    def _alternating_deltas(trace):
        fail_deltas, repair_deltas = [], []
        up_since, down_since = 0.0, None
        for event in trace.events:
            if event.is_crash:
                fail_deltas.append(event.time - up_since)
                down_since = event.time
            else:
                repair_deltas.append(event.time - down_since)
                up_since = event.time
        return fail_deltas, repair_deltas

    def test_exponential_inter_failure_mean_is_mttf(self):
        trace = sample_fault_trace(
            homogeneous_platform(1), horizon=self.HORIZON, mttf=2.0, mttr=1.0, seed=0
        )
        fails, _ = self._alternating_deltas(trace)
        assert len(fails) > 5_000
        assert sum(fails) / len(fails) == pytest.approx(2.0, rel=0.05)

    @pytest.mark.parametrize("shape", [0.7, 1.5])
    def test_weibull_inter_failure_mean_is_mttf(self, shape):
        # mean == mttf iff scale = mttf / Gamma(1 + 1/shape); a wrong scale
        # identity (e.g. scale = mttf) shifts the mean by Gamma(1 + 1/shape).
        trace = sample_fault_trace(
            homogeneous_platform(1), horizon=self.HORIZON, mttf=2.0, mttr=1.0,
            distribution="weibull", shape=shape, seed=1,
        )
        fails, _ = self._alternating_deltas(trace)
        assert len(fails) > 5_000
        assert sum(fails) / len(fails) == pytest.approx(2.0, rel=0.05)
        assert abs(sum(fails) / len(fails) - 2.0) < abs(
            2.0 * math.gamma(1.0 + 1.0 / shape) - 2.0
        ), "mean matches the identity, not the unscaled law"

    def test_repair_delay_mean_is_mttr(self):
        trace = sample_fault_trace(
            homogeneous_platform(1), horizon=self.HORIZON, mttf=2.0, mttr=1.0, seed=2
        )
        _, repairs = self._alternating_deltas(trace)
        assert len(repairs) > 5_000
        assert sum(repairs) / len(repairs) == pytest.approx(1.0, rel=0.05)

    @pytest.mark.parametrize("repair_shape", [0.7, 1.5])
    def test_weibull_repair_delay_mean_is_mttr(self, repair_shape):
        # same scale identity as the failure law: mean == mttr iff
        # scale = mttr / Gamma(1 + 1/repair_shape).
        trace = sample_fault_trace(
            homogeneous_platform(1), horizon=self.HORIZON, mttf=2.0, mttr=1.0,
            repair_shape=repair_shape, seed=4,
        )
        _, repairs = self._alternating_deltas(trace)
        assert len(repairs) > 5_000
        assert sum(repairs) / len(repairs) == pytest.approx(1.0, rel=0.05)
        assert abs(sum(repairs) / len(repairs) - 1.0) < abs(
            math.gamma(1.0 + 1.0 / repair_shape) - 1.0
        ), "mean matches the identity, not the unscaled law"

    def test_default_repair_draw_is_bit_identical_to_pre_repair_shape(self):
        # repair_shape=None must not silently become weibull(1.0): the law
        # is the same but the RNG stream is not, and golden fingerprints
        # pin the exponential draw.
        a = sample_fault_trace(homogeneous_platform(2), horizon=200.0, mttf=2.0, mttr=1.0, seed=5)
        b = sample_fault_trace(
            homogeneous_platform(2), horizon=200.0, mttf=2.0, mttr=1.0, seed=5,
            repair_shape=None,
        )
        assert a == b

    def test_load_coupling_divides_inter_failure_mean(self):
        # hazard 1 + 1.0 * 1.0 = 2 -> effective MTTF is mttf / 2.
        platform = homogeneous_platform(1)
        trace = sample_fault_trace(
            platform, horizon=self.HORIZON, mttf=2.0, mttr=1.0, seed=3,
            load_coupling=1.0, utilization={platform.processor_names[0]: 1.0},
        )
        fails, _ = self._alternating_deltas(trace)
        assert len(fails) > 8_000
        assert sum(fails) / len(fails) == pytest.approx(1.0, rel=0.05)

    def test_join_delay_mean_is_join_mean(self):
        platform = homogeneous_platform(8)
        joins = []
        for seed in range(60):
            trace = sample_fault_trace(
                platform, horizon=1e6, mttf=1e9, seed=seed, spares=7, join_mean=5.0
            )
            joins.extend(e.time for e in trace.events if e.is_join)
        assert len(joins) == 60 * 7
        assert sum(joins) / len(joins) == pytest.approx(5.0, rel=0.10)


# ------------------------------------------------------------------ trace I/O
class TestTraceIO:
    def test_dump_load_round_trip_is_bit_exact(self, homo4, tmp_path):
        trace = sample_fault_trace(homo4, horizon=300.0, mttf=20.0, mttr=5.0, seed=4)
        path = tmp_path / "trace.csv"
        dump_fault_trace(trace, path)
        loaded = load_fault_trace(path, platform=homo4, horizon=trace.horizon)
        assert loaded.events == trace.events
        assert loaded.horizon == trace.horizon

    def test_comments_blank_lines_and_header_are_skipped(self, homo4, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(
            "time,node,state\n"
            "# maintenance window\n"
            "\n"
            "5.0, P1 , down\n"
            "8.5,P1,UP\n"
        )
        trace = load_fault_trace(path, platform=homo4)
        assert [(e.time, e.processor, e.kind) for e in trace.events] == [
            (5.0, "P1", "crash"), (8.5, "P1", "repair"),
        ]
        assert trace.horizon == 9.5  # last event + 1

    def test_unknown_node_gets_close_match_hint(self, homo4, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("1.0,P11,down\n")
        with pytest.raises(FaultTraceError, match=r"unknown node 'P11'.*did you mean 'P1'"):
            load_fault_trace(path, platform=homo4)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1.0,P1", "expected 3 comma-separated fields"),
            ("soon,P1,down", "invalid time"),
            ("-2.0,P1,down", "negative time"),
            ("1.0,P1,rebooting", "state must be 'down' or 'up'"),
        ],
    )
    def test_malformed_rows_carry_file_and_line(self, tmp_path, row, message):
        path = tmp_path / "log.csv"
        path.write_text(f"# header\n{row}\n")
        with pytest.raises(FaultTraceError, match=message) as err:
            load_fault_trace(path)
        assert f"{path}:2" in str(err.value)

    def test_down_while_down_rejected(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("1.0,P1,down\n2.0,P1,down\n")
        with pytest.raises(FaultTraceError, match="already down"):
            load_fault_trace(path)

    def test_up_while_up_rejected(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("1.0,P1,up\n")
        with pytest.raises(FaultTraceError, match="is not down"):
            load_fault_trace(path)

    def test_rows_may_arrive_out_of_order(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("8.0,P1,up\n1.0,P1,down\n")
        trace = load_fault_trace(path)
        assert [e.kind for e in trace.events] == ["crash", "repair"]

    def test_horizon_clips_events(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("1.0,P1,down\n50.0,P1,up\n")
        trace = load_fault_trace(path, horizon=10.0)
        assert [e.kind for e in trace.events] == ["crash"]
        assert trace.horizon == 10.0

    def test_join_dumps_as_up_and_reloads_as_repair(self, tmp_path):
        trace = FaultTrace(
            events=(FaultEvent(1.0, "P1", "crash"), FaultEvent(3.0, "P1", "join")),
            horizon=10.0,
        )
        path = tmp_path / "trace.csv"
        dump_fault_trace(trace, path)
        assert ",up" in path.read_text()
        loaded = load_fault_trace(path, horizon=10.0)
        assert [e.kind for e in loaded.events] == ["crash", "repair"]

    def test_missing_file_raises_fault_trace_error(self, tmp_path):
        with pytest.raises(FaultTraceError, match="cannot read"):
            load_fault_trace(tmp_path / "absent.csv")


# ------------------------------------------------------------- frozen goldens
GOLDEN_PATH = Path(__file__).resolve().parents[1] / "golden" / "fault_trace_fingerprints.json"


def _trace_fingerprint(trace) -> str:
    """sha256 over horizon, initially-down set and every (time, proc, kind).

    Times hash via exact ``repr`` so the fingerprint is a bit-identity
    witness, not a statistical one.
    """
    digest = hashlib.sha256()
    digest.update(f"horizon={trace.horizon!r}\n".encode())
    digest.update(f"initially_down={sorted(trace.initially_down)!r}\n".encode())
    for event in trace.events:
        digest.update(f"{event.time!r},{event.processor},{event.kind}\n".encode())
    return digest.hexdigest()


def _declaration_chunks(platform, size):
    names = platform.processor_names
    return tuple(tuple(names[i : i + size]) for i in range(0, len(names), size))


def _synthetic_utilization(platform):
    return {name: (i % 4) * 0.25 for i, name in enumerate(platform.processor_names)}


#: regime name -> sample_fault_trace kwargs (as a function of the platform).
GOLDEN_REGIMES = {
    "exp-failstop": lambda p: dict(mttf=40.0),
    "exp-repair": lambda p: dict(mttf=40.0, mttr=10.0),
    "weibull0.7-repair": lambda p: dict(
        mttf=40.0, mttr=10.0, distribution="weibull", shape=0.7
    ),
    "weibull1.5-failstop": lambda p: dict(mttf=40.0, distribution="weibull", shape=1.5),
    "grouped2-repair": lambda p: dict(
        mttf=40.0, mttr=10.0, groups=_declaration_chunks(p, 2)
    ),
    "load0.5-repair": lambda p: dict(
        mttf=40.0, mttr=10.0, load_coupling=0.5, utilization=_synthetic_utilization(p)
    ),
    "elastic2-preempt": lambda p: dict(
        mttf=40.0, mttr=10.0, spares=2, join_mean=20.0, preempt_mean=80.0
    ),
}


class TestGoldenFingerprints:
    """The frozen contract: every sampling regime is a pure function of
    (spec, seed).  The first four regimes were fingerprinted *before* the
    fault-process refactor, so they also pin the refactor as drift-free."""

    def test_every_regime_matches_frozen_fingerprint(self):
        goldens = json.loads(GOLDEN_PATH.read_text())
        platforms = {
            "homo8": homogeneous_platform(8),
            "hetero5": heterogeneous_platform(5, seed=7),
        }
        produced = {}
        for regime, params in GOLDEN_REGIMES.items():
            for pname, platform in platforms.items():
                for seed in (0, 1):
                    trace = sample_fault_trace(
                        platform, horizon=400.0, seed=seed, **params(platform)
                    )
                    produced[f"{regime}/{pname}/seed{seed}"] = _trace_fingerprint(trace)
        assert produced == goldens
