"""Fault plans addressed by task key: the v1 ``injections`` shape and
the ``repro/faultplan`` loader.  Behaviour shared with site-addressed
entries is pinned over both shapes in ``tests/chaos/test_plan.py``."""

import json

import pytest

from repro.errors import (
    ChaosError,
    RunnerError,
    SimulatedKill,
    TaskTimeout,
    TransientTaskError,
)
from repro.runner import (
    FAULTPLAN_FORMAT,
    FAULTPLAN_VERSION,
    FaultPlan,
    Injection,
    load_plan,
)


def task_fault(task: str, **fields) -> Injection:
    """A v1 task entry, parsed exactly as a plan file's would be."""
    return Injection.from_entry({"task": task, **fields}, "injections")


def fire_task(plan: FaultPlan, key: str, point: str = "start") -> None:
    plan.fire("runner.task", point, key=key)


class TestInjectionValidation:
    def test_unknown_point_rejected(self):
        with pytest.raises(ChaosError, match="point"):
            task_fault("t:1", point="middle")

    def test_unknown_error_rejected(self):
        with pytest.raises(ChaosError, match="error"):
            task_fault("t:1", error="cosmic-ray")

    def test_zero_times_rejected(self):
        with pytest.raises(ChaosError, match="times"):
            task_fault("t:1", times=0)


class TestFiring:
    def test_exact_match_fires(self):
        plan = FaultPlan([task_fault("t:1", error="transient")])
        with pytest.raises(TransientTaskError):
            fire_task(plan, "t:1")
        assert plan.fired == [("runner.task", "start", "transient")]

    def test_glob_match_fires(self):
        plan = FaultPlan([task_fault("cell:*:GBSC:*")])
        with pytest.raises(TransientTaskError):
            fire_task(plan, "cell:perl:GBSC:p003")

    def test_non_matching_task_is_silent(self):
        plan = FaultPlan([task_fault("t:1")])
        fire_task(plan, "t:2")
        # A firing without a key never matches a task filter.
        plan.fire("runner.task", "start")
        assert plan.fired == []

    def test_non_matching_point_is_silent(self):
        plan = FaultPlan([task_fault("t:1", point="finish")])
        fire_task(plan, "t:1", "start")
        assert plan.fired == []

    def test_times_countdown(self):
        plan = FaultPlan([task_fault("t:*", times=2)])
        with pytest.raises(TransientTaskError):
            fire_task(plan, "t:1")
        with pytest.raises(TransientTaskError):
            fire_task(plan, "t:1")
        fire_task(plan, "t:1")  # spent: silent
        assert len(plan.fired) == 2
        assert plan.exhausted

    def test_declaration_order_wins(self):
        plan = FaultPlan(
            [
                task_fault("t:*", error="transient"),
                task_fault("t:1", error="permanent"),
            ]
        )
        with pytest.raises(TransientTaskError):
            fire_task(plan, "t:1")
        with pytest.raises(RunnerError):
            fire_task(plan, "t:1")

    def test_empty_plan_is_exhausted(self):
        assert FaultPlan().exhausted

    @pytest.mark.parametrize(
        "kind, exc",
        [
            ("transient", TransientTaskError),
            ("permanent", RunnerError),
            ("timeout", TaskTimeout),
            ("interrupt", KeyboardInterrupt),
            ("kill", SimulatedKill),
        ],
    )
    def test_error_kinds(self, kind, exc):
        plan = FaultPlan([task_fault("t:1", error=kind)])
        with pytest.raises(exc):
            fire_task(plan, "t:1")

    def test_custom_message(self):
        plan = FaultPlan(
            [task_fault("t:1", error="permanent", message="disk full")]
        )
        with pytest.raises(RunnerError, match="disk full"):
            fire_task(plan, "t:1")


class TestSerialisation:
    def test_roundtrip(self):
        plan = FaultPlan(
            [
                task_fault("t:1", point="finish", error="kill"),
                task_fault("t:*", point="artifact", times=3, message="m"),
            ]
        )
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone.injections == plan.injections
        assert plan.injections[1].site == "runner.artifact"
        assert plan.to_dict()["injections"][1]["point"] == "artifact"

    def test_load_plan(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(
            json.dumps(
                {
                    "format": FAULTPLAN_FORMAT,
                    "version": FAULTPLAN_VERSION,
                    "injections": [{"task": "t:1", "error": "permanent"}],
                }
            )
        )
        plan = load_plan(path)
        assert plan.injections[0].task == "t:1"

    def test_load_plan_missing_file(self, tmp_path):
        with pytest.raises(ChaosError, match="cannot read fault plan"):
            load_plan(tmp_path / "absent.json")

    def test_wrong_format_rejected(self):
        with pytest.raises(ChaosError, match="faultplan"):
            FaultPlan.from_dict({"format": "repro/layout", "version": 1})

    def test_wrong_version_rejected(self):
        with pytest.raises(ChaosError, match="version"):
            FaultPlan.from_dict(
                {"format": FAULTPLAN_FORMAT, "version": 99}
            )

    def test_malformed_entry_rejected(self):
        with pytest.raises(ChaosError, match="malformed"):
            FaultPlan.from_dict(
                {
                    "format": FAULTPLAN_FORMAT,
                    "version": FAULTPLAN_VERSION,
                    "injections": [{"point": "start"}],
                }
            )


class TestVersion2IoSection:
    def test_io_section_parses(self):
        plan = FaultPlan.from_dict(
            {
                "format": FAULTPLAN_FORMAT,
                "version": 2,
                "injections": [],
                "io": [
                    {"site": "store.index", "point": "replace",
                     "error": "torn"},
                ],
            }
        )
        assert plan.injections == (
            Injection(site="store.index", point="replace", error="torn"),
        )

    def test_io_section_requires_version_2(self):
        with pytest.raises(ChaosError, match="version 2"):
            FaultPlan.from_dict(
                {
                    "format": FAULTPLAN_FORMAT,
                    "version": 1,
                    "io": [{"site": "store.index"}],
                }
            )

    def test_version_1_plans_still_parse(self):
        plan = FaultPlan.from_dict(
            {
                "format": FAULTPLAN_FORMAT,
                "version": 1,
                "injections": [{"task": "t:1"}],
            }
        )
        assert plan.injections == (
            Injection("runner.task", "start", "transient", task="t:1"),
        )

    def test_malformed_io_entry_rejected(self):
        with pytest.raises(ChaosError, match="gremlin"):
            FaultPlan.from_dict(
                {
                    "format": FAULTPLAN_FORMAT,
                    "version": 2,
                    "io": [{"site": "store.index", "error": "gremlin"}],
                }
            )

    def test_to_dict_emits_v1_without_io(self):
        # Pre-existing v1 plan files must round-trip byte-identically.
        assert FaultPlan([task_fault("t:1")]).to_dict()["version"] == 1

    def test_to_dict_emits_v2_with_io(self):
        plan = FaultPlan([Injection(site="store.blob")])
        payload = plan.to_dict()
        assert payload["version"] == FAULTPLAN_VERSION
        assert payload["io"] == [
            {"site": "store.blob", "point": "data", "error": "eio",
             "times": 1}
        ]
        clone = FaultPlan.from_dict(payload)
        assert clone.injections == plan.injections
