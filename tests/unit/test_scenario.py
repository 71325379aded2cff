"""Unit and property tests for the declarative scenario subsystem."""

from __future__ import annotations

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SpecificationError
from repro.runtime.admission import ADMISSION_POLICIES
from repro.runtime.policies import RESCHEDULE_POLICIES
from repro.scenario import (
    PLATFORM_BUILDERS,
    SCHEDULERS,
    WORKLOAD_GENERATORS,
    FaultSpec,
    RuntimeSpec,
    ScenarioSpec,
    SchedulerSpec,
    WorkloadSpec,
    build_workload,
)
from repro.scenario.spec import SECTION_TYPES

#: every numeric spec field -> the type it holds (``int`` counts and seeds,
#: ``float`` durations and ratios)
NUMERIC_FIELDS = {
    "workload.granularity": float,
    "workload.num_tasks": int,
    "workload.num_processors": int,
    "workload.seed": int,
    "scheduler.epsilon": int,
    "scheduler.period": float,
    "scheduler.period_slack": float,
    "faults.mttf_periods": float,
    "faults.mttr_periods": float,
    "faults.weibull_shape": float,
    "faults.repair_shape": float,
    "faults.seed": int,
    "faults.group_size": int,
    "faults.load_coupling": float,
    "faults.spares": int,
    "faults.join_periods": float,
    "faults.preempt_periods": float,
    "runtime.num_datasets": int,
    "runtime.queue_capacity": int,
    "runtime.rebuild_overhead": float,
}


# --------------------------------------------------------------- strategies
def _workloads_for(generator: str):
    # the paper generator builds its own platform; others accept any name
    platforms = (
        st.one_of(st.none(), st.just("paper"))
        if generator == "paper"
        else st.one_of(
            st.none(), st.sampled_from(["paper", "homogeneous", "heterogeneous"])
        )
    )
    return st.builds(
        WorkloadSpec,
        generator=st.just(generator),
        granularity=st.floats(0.1, 5.0),
        num_tasks=st.one_of(st.none(), st.integers(2, 200)),
        num_processors=st.integers(4, 32),
        task_range=st.one_of(
            st.none(),
            st.tuples(st.integers(2, 50), st.integers(50, 100)),
        ),
        platform=platforms,
        seed=st.one_of(st.none(), st.integers(0, 2**31 - 1)),
        options=st.dictionaries(
            st.sampled_from(["length", "branches", "depth"]),
            st.integers(1, 8),
            max_size=1,
        ),
    )


_workloads = st.sampled_from(["paper", "chain", "video", "layered"]).flatmap(
    _workloads_for
)

_schedulers = st.builds(
    SchedulerSpec,
    name=st.sampled_from(["rltf", "ltf"]),
    epsilon=st.integers(0, 3),
    period=st.one_of(st.none(), st.floats(1.0, 1e4)),
    period_slack=st.floats(0.5, 4.0),
    fallback=st.booleans(),
    options=st.dictionaries(
        st.sampled_from(["strict_resilience", "enable_one_to_one"]),
        st.booleans(),
        max_size=2,
    ),
)

_faults = st.builds(
    FaultSpec,
    mttf_periods=st.floats(1.0, 1e4),
    mttr_periods=st.one_of(st.none(), st.floats(1.0, 1e3)),
    distribution=st.sampled_from(["exponential", "weibull"]),
    weibull_shape=st.floats(0.2, 4.0),
    seed=st.one_of(st.none(), st.integers(0, 2**31 - 1)),
)

_runtimes = st.builds(
    RuntimeSpec,
    num_datasets=st.integers(1, 1000),
    policy=st.sampled_from(RESCHEDULE_POLICIES.names),
    admission=st.sampled_from(ADMISSION_POLICIES.names),
    queue_capacity=st.one_of(st.none(), st.integers(1, 256)),
    checkpoint=st.just(True),
    rebuild_on_repair=st.booleans(),
    rebuild_overhead=st.floats(0.0, 10.0),
)

_scenarios = st.builds(
    ScenarioSpec,
    name=st.sampled_from(["a", "sweep-7", "nightly"]),
    workload=_workloads,
    scheduler=_schedulers,
    faults=_faults,
    runtime=_runtimes,
)


class TestRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(_scenarios)
    def test_dict_round_trip(self, spec):
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    @settings(max_examples=40, deadline=None)
    @given(_scenarios)
    def test_json_round_trip(self, spec):
        text = spec.to_json()
        assert ScenarioSpec.from_json(text) == spec
        # the document is plain JSON and carries the schema stamp
        data = json.loads(text)
        assert data["schema"] == 1

    def test_defaults_round_trip_and_partial_documents(self):
        assert ScenarioSpec.from_dict({}) == ScenarioSpec()
        spec = ScenarioSpec.from_dict({"faults": {"mttf_periods": 60}})
        assert spec.faults.mttf_periods == 60.0
        assert spec.runtime == RuntimeSpec()

    def test_file_round_trip(self, tmp_path):
        spec = ScenarioSpec(name="disk")
        path = tmp_path / "scenario.json"
        spec.save(path)
        assert ScenarioSpec.from_file(path) == spec

    def test_sections_accept_plain_mappings(self):
        spec = ScenarioSpec(workload={"granularity": 2.0}, faults={"mttf_periods": 9})
        assert spec.workload.granularity == 2.0
        assert spec.faults.mttf_periods == 9.0


class TestValidation:
    def test_unknown_top_level_key_suggests(self):
        with pytest.raises(SpecificationError, match="did you mean 'scheduler'"):
            ScenarioSpec.from_dict({"schedulr": {}})

    def test_unknown_field_suggests(self):
        with pytest.raises(SpecificationError, match="mttf_periods"):
            ScenarioSpec.from_dict({"faults": {"mtf_periods": 10}})

    def test_unknown_generator_suggests(self):
        with pytest.raises(SpecificationError, match="did you mean 'paper'"):
            WorkloadSpec(generator="papr")

    def test_bad_values_are_actionable(self):
        with pytest.raises(SpecificationError, match="faults.mttf_periods"):
            FaultSpec(mttf_periods=-1.0)
        with pytest.raises(SpecificationError, match="faults.distribution"):
            FaultSpec(distribution="zipf")
        with pytest.raises(SpecificationError, match="runtime.queue_capacity"):
            RuntimeSpec(queue_capacity=0)
        with pytest.raises(SpecificationError, match="scheduler.epsilon"):
            SchedulerSpec(epsilon=-1)

    @pytest.mark.parametrize(
        "path, bad",
        [
            (path, bad)
            for path, kind in NUMERIC_FIELDS.items()
            for bad in (True, False, "3")
            + ((math.inf, -math.inf, math.nan) if kind is float else (2.5,))
        ],
    )
    def test_numeric_fields_reject_booleans_and_non_finite_values(self, path, bad):
        """A JSON ``true`` is not a count or a ratio, and an infinity is not
        a duration: every numeric field rejects them, naming itself."""
        section, name = path.split(".")
        with pytest.raises(SpecificationError, match=path):
            ScenarioSpec.from_dict({section: {name: bad}})

    def test_task_range_rejects_booleans(self):
        with pytest.raises(SpecificationError, match="workload.task_range"):
            WorkloadSpec(task_range=(True, 3))

    def test_every_numeric_field_is_checked(self):
        numeric = {
            f"{section}.{f.name}"
            for section, cls in SECTION_TYPES.items()
            for f in dataclasses.fields(cls)
            if f.type.split(" ")[0] in ("int", "float")
        }
        assert numeric == set(NUMERIC_FIELDS)

    def test_invalid_numeric_field_exits_2_on_the_cli(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad.json"
        path.write_text('{"runtime": {"num_datasets": true}}')
        assert main(["run", str(path)]) == 2
        assert "runtime.num_datasets" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [False, 1, None, "true"])
    def test_checkpoint_accepts_only_true(self, bad):
        """Checkpoint/restart is the one execution mode: anything but
        ``true`` is rejected, naming the field."""
        with pytest.raises(SpecificationError, match="runtime.checkpoint"):
            ScenarioSpec.from_dict({"runtime": {"checkpoint": bad}})
        assert ScenarioSpec.from_dict({"runtime": {"checkpoint": True}}) == ScenarioSpec()

    def test_checkpoint_false_exits_2_on_the_cli(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "flush.json"
        path.write_text('{"runtime": {"checkpoint": false}}')
        assert main(["run", str(path)]) == 2
        assert "runtime.checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [False, 1, None, "true"])
    def test_fast_forward_accepts_only_true(self, bad):
        """Every stream runs the event loop: anything but ``true`` is
        rejected, naming the field."""
        with pytest.raises(SpecificationError, match="runtime.fast_forward"):
            ScenarioSpec.from_dict({"runtime": {"fast_forward": bad}})
        assert ScenarioSpec.from_dict({"runtime": {"fast_forward": True}}) == ScenarioSpec()

    def test_fast_forward_false_exits_2_on_the_cli(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "no-ff.json"
        path.write_text('{"runtime": {"fast_forward": false}}')
        assert main(["run", str(path)]) == 2
        assert "runtime.fast_forward" in capsys.readouterr().err

    def test_paper_generator_rejects_foreign_platform(self):
        with pytest.raises(SpecificationError, match="paper platform"):
            WorkloadSpec(generator="paper", platform="homogeneous")
        assert WorkloadSpec(generator="paper", platform="paper").platform == "paper"
        assert WorkloadSpec(generator="chain", platform="homogeneous").generator == "chain"

    def test_cross_field_epsilon_check(self):
        with pytest.raises(SpecificationError, match="num_processors"):
            ScenarioSpec(
                workload=WorkloadSpec(num_processors=4),
                scheduler=SchedulerSpec(epsilon=4),
            )

    def test_epsilon_free_schedulers_reject_replication(self):
        with pytest.raises(SpecificationError, match="epsilon must be 0"):
            SchedulerSpec(name="heft", epsilon=2)
        assert SchedulerSpec(name="heft", epsilon=0).name == "heft"

    def test_schema_version_gate(self):
        with pytest.raises(SpecificationError, match="schema version"):
            ScenarioSpec.from_dict({"schema": 99})

    def test_non_object_scenario(self):
        with pytest.raises(SpecificationError, match="JSON object"):
            ScenarioSpec.from_dict([1, 2])
        with pytest.raises(SpecificationError, match="valid JSON"):
            ScenarioSpec.from_json("{not json")


class TestRegistries:
    def test_policy_registry_suggests_close_matches(self):
        with pytest.raises(ValueError, match="did you mean 'rltf'"):
            RESCHEDULE_POLICIES.resolve("rlft")
        with pytest.raises(KeyError, match="did you mean"):
            SCHEDULERS.lookup("ltff")
        with pytest.raises(KeyError, match="did you mean 'paper'"):
            PLATFORM_BUILDERS.lookup("papre")

    def test_trial_spec_uses_suggesting_errors(self):
        with pytest.raises(ValueError, match="did you mean 'remap'"):
            ScenarioSpec().updated({"runtime.policy": "remp"})

    def test_expected_names_are_registered(self):
        assert {"paper", "chain", "video", "layered"} <= set(WORKLOAD_GENERATORS)
        assert {"paper", "homogeneous", "heterogeneous"} <= set(PLATFORM_BUILDERS)
        assert {"rltf", "ltf", "fault-free", "heft"} <= set(SCHEDULERS)

    def test_named_workload_generators_build(self):
        chain = build_workload(
            WorkloadSpec(generator="chain", num_tasks=6, num_processors=4), seed=1
        )
        assert len(chain.graph.task_names) == 6
        assert chain.platform.num_processors == 4
        homog = build_workload(
            WorkloadSpec(
                generator="video", num_processors=5, platform="homogeneous"
            ),
            seed=1,
        )
        assert homog.platform.num_processors == 5

    def test_bad_generator_options_are_actionable(self):
        with pytest.raises(SpecificationError, match="workload.options"):
            build_workload(
                WorkloadSpec(generator="chain", options={"bogus_kw": 3}), seed=0
            )


class TestGridAndUpdates:
    def test_grid_product_order_first_axis_major(self):
        specs = ScenarioSpec().grid(
            {
                "faults.mttf_periods": [50.0, 100.0],
                "faults.mttr_periods": [None, 25.0],
            }
        )
        combos = [(s.faults.mttf_periods, s.faults.mttr_periods) for s in specs]
        assert combos == [(50.0, None), (50.0, 25.0), (100.0, None), (100.0, 25.0)]

    def test_grid_keyword_axes(self):
        specs = ScenarioSpec().grid(runtime__policy=["rltf", "remap"])
        assert [s.runtime.policy for s in specs] == ["rltf", "remap"]

    def test_grid_rejects_unknown_axis(self):
        with pytest.raises(SpecificationError, match="faults.mttf_periods"):
            ScenarioSpec().grid({"faults.mtf_periods": [1.0]})

    def test_grid_rejects_empty_axis(self):
        with pytest.raises(SpecificationError, match="empty"):
            ScenarioSpec().grid({"faults.mttf_periods": []})

    def test_updated_applies_sections_atomically(self):
        # switching to an ε-less scheduler and zeroing ε is only valid together
        spec = ScenarioSpec().updated(
            {"scheduler.name": "fault-free", "scheduler.epsilon": 0, "name": "x"}
        )
        assert spec.scheduler.name == "fault-free"
        assert spec.name == "x"

    def test_grid_points_are_validated(self):
        with pytest.raises(SpecificationError):
            ScenarioSpec().grid({"faults.mttf_periods": [-5.0]})
