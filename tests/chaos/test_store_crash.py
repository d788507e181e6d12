"""Crashes inside store writes: audit-clean scenes, quarantine, gc.

The store's contract under ``SIGKILL`` (docs/crash-consistency.md):
a kill between the blob write and the index merge leaves at most a
dangling blob or a stranded temp file — warnings, never errors — and
a reopened store transparently rebuilds.
"""

from __future__ import annotations

import pytest

from repro.analysis import Severity, audit_crash_scene, audit_store
from repro.chaos import sites
from repro.chaos.plan import FaultPlan, Injection
from repro.errors import SimulatedKill
from repro.store import ArtifactStore, artifact_digest
from tests.conftest import small_trg_pair as build

KEY = {"trace": "t" * 64}
DIGEST = artifact_digest("trg", KEY)
SEED_KEY = {"trace": "u" * 64}


@pytest.fixture(autouse=True)
def clean_hook():
    sites.uninstall()
    yield
    sites.uninstall()


def error_findings(root):
    return [
        found
        for found in audit_store(root)
        if found.severity is Severity.ERROR
    ]


def tamper(store: ArtifactStore, digest: str) -> None:
    path = store.blob_path(digest)
    path.write_bytes(path.read_bytes() + b"XX")


class TestKillDuringStoreWrite:
    @pytest.mark.parametrize(
        "site, point",
        [
            ("store.blob", "data"),
            ("store.blob", "fsync"),
            ("store.index", "data"),
            ("store.index", "fsync"),
            ("store.index", "replace"),
        ],
    )
    @pytest.mark.parametrize("error", ["kill", "crash"])
    def test_store_stays_audit_clean(self, tmp_path, site, point, error):
        root = tmp_path / "s"
        # An established store: the crash must not damage prior state.
        ArtifactStore(root).get_or_build("trg", SEED_KEY, build)
        sites.install(
            FaultPlan(
                [Injection(site=site, point=point, error=error)]
            )
        )
        with pytest.raises(SimulatedKill):
            ArtifactStore(root).get_or_build("trg", KEY, build)
        sites.uninstall()

        # The crash scene: no error-severity findings, ever.  A
        # dangling blob (index write died) or stranded temp file
        # (power cut) is acceptable residue.
        assert error_findings(root) == []
        assert audit_crash_scene(store=root) == []

        # A fresh process rebuilds transparently and repairs the cache.
        reopened = ArtifactStore(root)
        assert reopened.get_or_build("trg", KEY, build) == build()
        assert reopened.get_or_build("trg", KEY, build) == build()
        assert reopened.hits == 1

    def test_kill_between_blob_and_index_leaves_dangling_blob(
        self, tmp_path
    ):
        root = tmp_path / "s"
        sites.install(
            FaultPlan(
                [Injection(site="store.index", point="before",
                             error="kill")]
            )
        )
        with pytest.raises(SimulatedKill):
            ArtifactStore(root).get_or_build("trg", KEY, build)
        sites.uninstall()
        # The blob landed; the index never heard about it.
        store = ArtifactStore(root)
        assert store.blob_path(DIGEST).exists()
        assert store.get(DIGEST) is None
        # gc reclaims the orphan.
        summary = store.gc()
        assert summary["removed_blobs"] == 1
        assert not store.blob_path(DIGEST).exists()

    def test_gc_sweeps_stranded_temp(self, tmp_path):
        root = tmp_path / "s"
        sites.install(
            FaultPlan(
                [Injection(site="store.blob", point="data",
                             error="crash")]
            )
        )
        with pytest.raises(SimulatedKill):
            ArtifactStore(root).get_or_build("trg", KEY, build)
        sites.uninstall()
        assert list(root.rglob("*.tmp"))
        summary = ArtifactStore(root).gc()
        assert summary["tmp_swept"] == 1
        assert list(root.rglob("*.tmp")) == []


class TestQuarantine:
    def seed_corrupt(self, root) -> ArtifactStore:
        store = ArtifactStore(root)
        store.get_or_build("trg", KEY, build)
        tamper(store, DIGEST)
        return store

    def test_second_strike_quarantines(self, tmp_path):
        store = self.seed_corrupt(tmp_path / "s")
        assert store.get(DIGEST) is None  # strike 1: plain miss
        assert not (store.quarantine_path / DIGEST).exists()
        assert store.get(DIGEST) is None  # strike 2: quarantined
        assert (store.quarantine_path / DIGEST).exists()
        assert not store.blob_path(DIGEST).exists()
        assert DIGEST not in store._index

    def test_quarantined_count_in_stats(self, tmp_path):
        store = self.seed_corrupt(tmp_path / "s")
        store.get(DIGEST)
        store.get(DIGEST)
        assert store.stats()["quarantined"] == 1

    def test_rebuild_after_quarantine_hits_again(self, tmp_path):
        store = self.seed_corrupt(tmp_path / "s")
        store.get(DIGEST)
        store.get(DIGEST)
        assert store.get_or_build("trg", KEY, build) == build()
        assert store.get(DIGEST) is not None

    def test_gc_purges_quarantine(self, tmp_path):
        store = self.seed_corrupt(tmp_path / "s")
        store.get(DIGEST)
        store.get(DIGEST)
        summary = store.gc()
        assert summary["quarantined_removed"] == 1
        assert store.stats()["quarantined"] == 0

    def test_audit_warns_about_quarantine(self, tmp_path):
        store = self.seed_corrupt(tmp_path / "s")
        store.get(DIGEST)
        store.get(DIGEST)
        findings = audit_store(store.root)
        assert any(f.rule == "cache/quarantined" for f in findings)
        assert error_findings(store.root) == []

    def test_readonly_store_never_quarantines(self, tmp_path):
        root = tmp_path / "s"
        self.seed_corrupt(root)
        readonly = ArtifactStore(root, readonly=True)
        assert readonly.get(DIGEST) is None
        assert readonly.get(DIGEST) is None
        assert not (readonly.quarantine_path / DIGEST).exists()
