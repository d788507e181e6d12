"""Injection / FaultPlan: validation, firing, serialisation.

One plan type serves both entry shapes of the ``repro/faultplan``
format: v1 ``injections`` addressed by task key glob, and v2 ``io``
entries addressed by site.  :class:`TestEntryShapes` pins the
behaviour they share over both shapes; the loader's task-shape
specifics live in ``tests/runner/test_faults.py``.
"""

import errno
import io
import json
from pathlib import Path

import pytest

from repro.chaos.plan import (
    ERROR_KINDS,
    POINTS,
    TASK_POINTS,
    TASK_SITE,
    FaultPlan,
    Injection,
    load_plan,
)
from repro.chaos.sites import TASK_SITES
from repro.errors import (
    ChaosError,
    RunnerError,
    SimulatedCrash,
    SimulatedKill,
    TaskTimeout,
    TransientTaskError,
)

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


class TestInjectionValidation:
    def test_empty_site_rejected(self):
        with pytest.raises(ChaosError, match="site"):
            Injection(site="")

    def test_unknown_point_rejected(self):
        with pytest.raises(ChaosError, match="point"):
            Injection(site="store.blob", point="midway")

    def test_unknown_error_rejected(self):
        with pytest.raises(ChaosError, match="error"):
            Injection(site="store.blob", error="cosmic-ray")

    def test_zero_times_rejected(self):
        with pytest.raises(ChaosError, match="times"):
            Injection(site="store.blob", times=0)

    def test_negative_skip_rejected(self):
        with pytest.raises(ChaosError, match="skip"):
            Injection(site="store.blob", skip=-1)

    def test_non_injection_entry_rejected(self):
        with pytest.raises(ChaosError, match="Injection"):
            FaultPlan([{"site": "store.blob"}])

    def test_task_filter_needs_task_point(self):
        with pytest.raises(ChaosError, match="task point"):
            Injection(site="store.blob", task="t:1")


class TestFiring:
    def test_exact_match_fires(self):
        plan = FaultPlan([Injection(site="store.blob", error="eio")])
        with pytest.raises(OSError):
            plan.fire("store.blob", "data")
        assert plan.fired == [("store.blob", "data", "eio")]
        assert plan.exhausted

    def test_glob_match_fires(self):
        plan = FaultPlan([Injection(site="store.*", error="eio")])
        with pytest.raises(OSError):
            plan.fire("store.index", "data")

    def test_non_matching_site_is_silent(self):
        plan = FaultPlan([Injection(site="store.blob")])
        plan.fire("store.index", "data")
        assert plan.fired == []

    def test_non_matching_point_is_silent(self):
        plan = FaultPlan([Injection(site="store.blob", point="fsync")])
        plan.fire("store.blob", "data")
        assert plan.fired == []

    def test_skip_addresses_nth_occurrence(self):
        plan = FaultPlan([Injection(site="store.blob", skip=2)])
        plan.fire("store.blob", "data")
        plan.fire("store.blob", "data")
        with pytest.raises(OSError):
            plan.fire("store.blob", "data")
        assert len(plan.fired) == 1

    def test_times_countdown(self):
        plan = FaultPlan([Injection(site="store.blob", times=2)])
        for _ in range(2):
            with pytest.raises(OSError):
                plan.fire("store.blob", "data")
        plan.fire("store.blob", "data")  # spent: silent
        assert len(plan.fired) == 2
        assert plan.exhausted

    def test_empty_plan_is_exhausted(self):
        assert FaultPlan().exhausted

    def test_enospc_errno(self):
        plan = FaultPlan([Injection(site="s.*", error="enospc")])
        with pytest.raises(OSError) as caught:
            plan.fire("s.x", "data")
        assert caught.value.errno == errno.ENOSPC

    def test_eio_errno(self):
        plan = FaultPlan([Injection(site="s.*", error="eio")])
        with pytest.raises(OSError) as caught:
            plan.fire("s.x", "data")
        assert caught.value.errno == errno.EIO

    def test_kill_is_base_exception(self):
        plan = FaultPlan([Injection(site="s.*", error="kill")])
        with pytest.raises(SimulatedKill):
            plan.fire("s.x", "data")
        assert not issubclass(SimulatedKill, Exception)

    def test_crash_subclasses_kill(self):
        plan = FaultPlan([Injection(site="s.*", error="crash")])
        with pytest.raises(SimulatedCrash):
            plan.fire("s.x", "data")
        assert issubclass(SimulatedCrash, SimulatedKill)

    def test_torn_halves_streaming_payload(self):
        plan = FaultPlan([Injection(site="s.*", error="torn")])
        handle = io.StringIO()
        with pytest.raises(SimulatedCrash):
            plan.fire("s.x", "data", handle=handle, payload="0123456789\n")
        # Half the line reached the "disk" before the power cut.
        assert handle.getvalue() == "01234"

    def test_torn_truncates_atomic_handle(self):
        plan = FaultPlan([Injection(site="s.*", error="torn")])
        handle = io.BytesIO(b"0123456789")
        handle.seek(0, io.SEEK_END)
        with pytest.raises(SimulatedCrash):
            plan.fire("s.x", "data", handle=handle)
        assert handle.getvalue() == b"01234"

    def test_custom_message(self):
        plan = FaultPlan(
            [Injection(site="s.*", error="eio", message="disk died")]
        )
        with pytest.raises(OSError, match="disk died"):
            plan.fire("s.x", "data")


class TestSerialisation:
    def test_roundtrip(self):
        plan = FaultPlan(
            [
                Injection(site="store.index", point="replace",
                          error="torn", skip=1),
                Injection(site="runner.*", times=3, message="m"),
            ]
        )
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone.injections == plan.injections

    def test_defaults_omitted_from_entries(self):
        entry = Injection(site="store.blob").to_entry()
        assert entry == {
            "site": "store.blob", "point": "data",
            "error": "eio", "times": 1,
        }

    def test_none_entries_is_empty_plan(self):
        plan = FaultPlan.from_dict(
            {"format": "repro/faultplan", "version": 2, "io": None}
        )
        assert plan.injections == ()

    def test_non_object_entry_rejected(self):
        with pytest.raises(ChaosError, match="object"):
            Injection.from_entry("store.blob")

    def test_missing_site_rejected(self):
        with pytest.raises(ChaosError, match="site"):
            Injection.from_entry({"point": "data"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ChaosError, match="unknown keys"):
            Injection.from_entry({"site": "s", "when": "now"})


class TestConstants:
    def test_points_cover_write_protocol(self):
        assert POINTS[:5] == ("before", "data", "fsync", "replace", "after")
        assert set(POINTS[5:]) == {"start", "finish"}
        assert set(TASK_POINTS) <= set(POINTS)
        assert TASK_SITE in TASK_SITES

    def test_error_kinds(self):
        # The union of the task kinds and the write-failure kinds.
        assert set(ERROR_KINDS) == {
            "transient", "permanent", "timeout", "interrupt", "kill",
            "enospc", "eio", "torn", "crash",
        }


#: Plan section -> (entry address, a (site, point, key) firing the
#: entry's default point matches, a firing it must ignore).
SHAPES = {
    "injections": (
        {"task": "cell:*:GBSC:*"},
        ("runner.task", "start", "cell:perl:GBSC:p003"),
        ("runner.task", "start", "cell:perl:PH:p003"),
    ),
    "io": (
        {"site": "store.*"},
        ("store.index", "data", None),
        ("obs.sink", "data", None),
    ),
}


def shape_plan(section: str, **fields) -> FaultPlan:
    address, _, _ = SHAPES[section]
    return FaultPlan.from_dict(
        {
            "format": "repro/faultplan",
            "version": 2,
            section: [{**address, "error": "permanent", **fields}],
        }
    )


def fire(plan: FaultPlan, target: tuple) -> None:
    site, point, key = target
    plan.fire(site, point, key=key)


@pytest.mark.parametrize("section", sorted(SHAPES))
class TestEntryShapes:
    def test_unknown_keys_rejected(self, section):
        address, _, _ = SHAPES[section]
        with pytest.raises(ChaosError, match="unknown keys.*piont"):
            Injection.from_entry({**address, "piont": "artifact"}, section)

    def test_address_key_of_other_shape_rejected(self, section):
        other = "io" if section == "injections" else "injections"
        address, _, _ = SHAPES[other]
        with pytest.raises(ChaosError, match="unknown keys"):
            Injection.from_entry(address, section)

    def test_glob_matches_and_misses(self, section):
        _, hit, miss = SHAPES[section]
        plan = shape_plan(section)
        fire(plan, miss)
        assert plan.fired == []
        with pytest.raises(RunnerError):
            fire(plan, hit)

    def test_times_and_skip(self, section):
        _, hit, _ = SHAPES[section]
        plan = shape_plan(section, times=2, skip=1)
        fire(plan, hit)  # skipped
        for _ in range(2):
            with pytest.raises(RunnerError):
                fire(plan, hit)
        fire(plan, hit)  # spent
        assert len(plan.fired) == 2
        assert plan.exhausted

    def test_declaration_order(self, section):
        address, hit, _ = SHAPES[section]
        plan = FaultPlan(
            [
                Injection.from_entry(
                    {**address, "error": "transient"}, section
                ),
                Injection.from_entry(
                    {**address, "error": "timeout"}, section
                ),
            ]
        )
        with pytest.raises(TransientTaskError):
            fire(plan, hit)
        with pytest.raises(TaskTimeout):
            fire(plan, hit)

    @pytest.mark.parametrize(
        "kind, exc",
        [
            ("transient", TransientTaskError),
            ("permanent", RunnerError),
            ("timeout", TaskTimeout),
            ("interrupt", KeyboardInterrupt),
            ("kill", SimulatedKill),
            ("enospc", OSError),
            ("eio", OSError),
            ("torn", SimulatedCrash),
            ("crash", SimulatedCrash),
        ],
    )
    def test_error_kinds(self, section, kind, exc):
        _, hit, _ = SHAPES[section]
        plan = shape_plan(section, error=kind)
        with pytest.raises(exc):
            fire(plan, hit)

    def test_roundtrip_keeps_shape(self, section):
        other = "io" if section == "injections" else "injections"
        plan = shape_plan(section, times=3, skip=2, message="m")
        payload = plan.to_dict()
        assert len(payload[section]) == 1
        assert not payload.get(other)
        assert FaultPlan.from_dict(payload).to_dict() == payload


@pytest.mark.parametrize(
    "name",
    [
        "faultplan_degraded.json",
        "faultplan_torn_index.json",
        "faultplan_torn_journal.json",
        "faultplan_transient.json",
    ],
)
def test_example_plans_roundtrip_byte_identically(name):
    text = (EXAMPLES / name).read_text(encoding="utf-8")
    plan = load_plan(EXAMPLES / name)
    assert json.dumps(plan.to_dict(), indent=2) + "\n" == text


def test_v1_artifact_point_is_rejected():
    """Task payloads go in the journal; there is no artifact write to
    address any more."""
    with pytest.raises(ChaosError, match="unknown task point 'artifact'"):
        FaultPlan.from_dict(
            {
                "format": "repro/faultplan",
                "version": 1,
                "injections": [
                    {"task": "cell:*", "point": "artifact"}
                ],
            }
        )
