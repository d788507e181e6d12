"""The write-site registry and the process-wide fault hook."""

import pytest

from repro.chaos import sites
from repro.chaos.plan import FaultPlan, Injection
from repro.errors import ChaosError


@pytest.fixture(autouse=True)
def clean_hook():
    """Every test starts and ends with no plan or recorder installed."""
    sites.uninstall()
    yield
    sites.uninstall()


class TestRegistry:
    def test_ids_are_family_dot_name(self):
        for site in sites.WRITE_SITES:
            family, _, name = site.partition(".")
            assert family and name, site

    def test_descriptions_are_non_empty(self):
        assert all(sites.WRITE_SITES.values())

    def test_known_surfaces_registered(self):
        expected = {
            "io.atomic_writer", "store.blob", "store.index",
            "runner.journal", "runner.artifact", "obs.sink",
            "perf.history",
        }
        assert expected <= set(sites.WRITE_SITES)


class TestInstall:
    def test_fire_without_plan_is_noop(self):
        sites.fire("store.blob", "data")

    def test_install_and_fire(self):
        plan = FaultPlan([Injection(site="store.blob", error="eio")])
        sites.install(plan)
        assert sites.active() is plan
        with pytest.raises(OSError):
            sites.fire("store.blob", "data")

    def test_install_unknown_literal_site_rejected(self):
        plan = FaultPlan([Injection(site="store.blog")])
        with pytest.raises(ChaosError, match="store.blog"):
            sites.install(plan)

    def test_install_glob_site_accepted(self):
        sites.install(FaultPlan([Injection(site="store.*")]))
        assert sites.active() is not None

    def test_install_non_plan_rejected(self):
        with pytest.raises(ChaosError, match="FaultPlan"):
            sites.install([Injection(site="store.blob")])

    def test_uninstall(self):
        sites.install(FaultPlan([Injection(site="store.blob")]))
        sites.uninstall()
        assert sites.active() is None
        sites.fire("store.blob", "data")


class TestInstalledContext:
    def test_restores_previous_plan(self):
        outer = FaultPlan([Injection(site="store.blob")])
        inner = FaultPlan([Injection(site="store.index")])
        sites.install(outer)
        with sites.installed(inner):
            assert sites.active() is inner
        assert sites.active() is outer

    def test_restores_on_exception(self):
        plan = FaultPlan([Injection(site="store.blob", error="eio")])
        with pytest.raises(OSError):
            with sites.installed(plan):
                sites.fire("store.blob", "data")
        assert sites.active() is None

    def test_none_is_passthrough(self):
        outer = FaultPlan([Injection(site="store.blob")])
        sites.install(outer)
        with sites.installed(None):
            # An optional plan that is absent must not mask an
            # installed one.
            assert sites.active() is outer
        assert sites.active() is outer


class TestRecording:
    def test_records_every_firing(self):
        events: list[tuple[str, str]] = []
        with sites.recording(events):
            sites.fire("store.blob", "before")
            sites.fire("store.blob", "data")
            sites.fire("store.index", "replace")
        assert events == [
            ("store.blob", "before"),
            ("store.blob", "data"),
            ("store.index", "replace"),
        ]

    def test_recorder_removed_after_block(self):
        events: list[tuple[str, str]] = []
        with sites.recording(events):
            pass
        sites.fire("store.blob", "data")
        assert events == []

    def test_recording_and_plan_compose(self):
        events: list[tuple[str, str]] = []
        plan = FaultPlan([Injection(site="store.blob", error="eio")])
        with sites.recording(events), sites.installed(plan):
            with pytest.raises(OSError):
                sites.fire("store.blob", "data")
        assert events == [("store.blob", "data")]
        assert plan.fired
