"""Campaign driver: point selection, the crash/verify loop, findings.

Uses a synthetic batch (no workloads) so the end-to-end campaign runs
in well under a second; CI's chaos job exercises the real table1 run.
"""

from __future__ import annotations

import json

import pytest

from repro.chaos import sites
from repro.chaos.campaign import (
    FINDINGS_FORMAT,
    CampaignResult,
    CrashPoint,
    run_campaign,
    select_crash_points,
    write_findings,
)
from repro.errors import ChaosError
from repro.runner import Batch, TaskSpec
from repro.store import ArtifactStore


@pytest.fixture(autouse=True)
def clean_hook():
    sites.uninstall()
    yield
    sites.uninstall()


def batch_factory(store: ArtifactStore) -> Batch:
    """Three tasks that exercise the store, artifacts and journal."""
    tasks = []
    for index in range(1, 4):
        def body(env, index=index, store=store):
            def build():
                return {"value": index * 10}

            # A raw put keeps the codec surface out of the picture but
            # still drives the blob + index write sites.
            store.put(f"{index:064x}", "trace", b"x" * index)
            return build()

        tasks.append(
            TaskSpec(
                key=f"t:{index}",
                kind="unit",
                run=body,
                artifact=f"t{index}.json",
            )
        )

    def render(results):
        return "\n".join(
            f"{key}={results[key]['value']}" for key in sorted(results)
        )

    return Batch(
        command="chaos-test",
        grid_id="chaos-grid",
        tasks=tuple(tasks),
        render=render,
    )


EVENTS = [
    ("store.blob", "data"),
    ("store.blob", "data"),
    ("store.index", "replace"),
    ("runner.journal", "data"),
    ("runner.journal", "data"),
    ("obs.sink", "data"),
]


class TestSelectCrashPoints:
    def test_deterministic_for_seed(self):
        first = select_crash_points(EVENTS, 4, seed=7)
        second = select_crash_points(EVENTS, 4, seed=7)
        assert first == second

    def test_seed_changes_selection(self):
        everything = {
            select_crash_points(EVENTS, 3, seed=seed)
            for seed in range(20)
        }
        assert len(everything) > 1

    def test_stratified_across_families(self):
        points = select_crash_points(EVENTS, 3, seed=0)
        families = {cp.site.split(".")[0] for cp in points}
        # One pick per family before any family gets a second.
        assert families == {"store", "runner", "obs"}

    def test_occurrences_distinct_per_site(self):
        points = select_crash_points(EVENTS, len(EVENTS), seed=3)
        assert len(points) == len(EVENTS)
        assert len({(cp.site, cp.point, cp.occurrence)
                    for cp in points}) == len(EVENTS)

    def test_errors_rotate(self):
        points = select_crash_points(
            EVENTS, 4, seed=0, errors=("eio", "kill")
        )
        assert [cp.error for cp in points] == [
            "eio", "kill", "eio", "kill"
        ]

    def test_fewer_events_than_points(self):
        points = select_crash_points(EVENTS[:2], 10, seed=0)
        assert len(points) == 2

    def test_zero_points_rejected(self):
        with pytest.raises(ChaosError, match="point"):
            select_crash_points(EVENTS, 0, seed=0)

    def test_unknown_error_kind_rejected(self):
        with pytest.raises(ChaosError, match="cosmic"):
            select_crash_points(EVENTS, 1, seed=0, errors=("cosmic",))

    def test_empty_errors_rejected(self):
        with pytest.raises(ChaosError, match="error kind"):
            select_crash_points(EVENTS, 1, seed=0, errors=())

    def test_label_is_stable(self):
        cp = CrashPoint(index=0, site="store.index", point="replace",
                        occurrence=2, error="torn")
        assert cp.label == "store.index/replace#2:torn"


class TestRunCampaign:
    def test_synthetic_campaign_honours_contract(self, tmp_path):
        lines: list[str] = []
        result = run_campaign(
            batch_factory,
            tmp_path / "work",
            command="chaos-test",
            points=8,
            seed=11,
            echo=lines.append,
        )
        assert result.ok, [f.message for f in result.findings]
        assert len(result.points) == 8
        assert result.crashed + result.degraded + result.clean == 8
        # kill/crash/torn points at fatal sites actually crashed runs.
        assert result.crashed >= 1
        assert result.baseline_report == "t:1=10\nt:2=20\nt:3=30"
        assert any("baseline" in line for line in lines)

    def test_point_dirs_removed_unless_keep(self, tmp_path):
        work = tmp_path / "work"
        run_campaign(
            batch_factory, work, command="chaos-test",
            points=2, seed=1,
        )
        assert not list(work.glob("point-*"))
        run_campaign(
            batch_factory, work, command="chaos-test",
            points=2, seed=1, keep=True,
        )
        assert len(list(work.glob("point-*"))) == 2

    def test_findings_artifact_shape(self, tmp_path):
        result = run_campaign(
            batch_factory, tmp_path / "work",
            command="chaos-test", points=3, seed=5,
        )
        out = tmp_path / "findings.json"
        write_findings(result, out)
        payload = json.loads(out.read_text())
        assert payload["format"] == FINDINGS_FORMAT
        assert payload["seed"] == 5
        assert payload["summary"]["points"] == 3
        assert payload["summary"]["ok"] is True
        assert payload["findings"] == []
        assert len(payload["points"]) == 3
        assert {"index", "site", "point", "occurrence", "error"} <= set(
            payload["points"][0]
        )

    def test_result_ok_reflects_findings(self):
        clean = CampaignResult(
            command="c", seed=0, baseline_report="r", points=(),
            crashed=0, degraded=0, clean=0, findings=(),
        )
        assert clean.ok
