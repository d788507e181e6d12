"""The cache/* audit rule family over artifact-store directories."""

from __future__ import annotations

import json

import pytest

from repro.analysis import audit_run_path, audit_store
from repro.analysis.findings import Severity
from repro.obs import sniff_format
from repro.store import (
    ArtifactStore,
    INDEX_NAME,
    STORE_FORMAT,
    artifact_digest,
    blob_relpath,
)


@pytest.fixture
def store(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    store.put(artifact_digest("trace", {"trace": "a"}), "trace", b"payload")
    return store


def rules(findings):
    return [finding.rule for finding in findings]


class TestIsStoreDir:
    """``audit_run_path`` routes a directory to the store audit when its
    index is stamped ``repro/store-index``, and nothing else."""

    def test_recognises_a_store(self, store):
        assert sniff_format(store.root / INDEX_NAME) == STORE_FORMAT
        assert audit_run_path(store.root) == []

    def test_rejects_other_directories(self, tmp_path):
        assert rules(audit_run_path(tmp_path)) == ["manifest/missing"]
        (tmp_path / INDEX_NAME).write_text("{bad")
        assert sniff_format(tmp_path / INDEX_NAME) is None
        assert rules(audit_run_path(tmp_path)) == ["manifest/missing"]
        (tmp_path / INDEX_NAME).write_text(json.dumps({"format": "x"}))
        assert sniff_format(tmp_path / INDEX_NAME) == "x"
        assert rules(audit_run_path(tmp_path)) == ["manifest/missing"]


class TestAuditStore:
    def test_clean_store_has_no_findings(self, store):
        assert audit_store(store.root) == []

    def test_missing_index(self, tmp_path):
        assert rules(audit_store(tmp_path)) == ["cache/index-parse"]

    def test_corrupt_index(self, store):
        """An unparseable index also strands the blobs as orphans."""
        (store.root / INDEX_NAME).write_text("{bad json")
        assert rules(audit_store(store.root)) == [
            "cache/index-parse",
            "cache/orphan-blob",
        ]

    def test_malformed_entry(self, store):
        """A malformed entry can't vouch for its blob, which is then
        reported as orphaned too."""
        index = store.root / INDEX_NAME
        data = json.loads(index.read_text())
        digest = next(iter(data["entries"]))
        del data["entries"][digest]["sha256"]
        index.write_text(json.dumps(data))
        assert rules(audit_store(store.root)) == [
            "cache/index-entry",
            "cache/orphan-blob",
        ]

    def test_missing_blob(self, store):
        store.blob_path(artifact_digest("trace", {"trace": "a"})).unlink()
        assert rules(audit_store(store.root)) == ["cache/missing-blob"]

    def test_digest_mismatch(self, store):
        blob = store.blob_path(artifact_digest("trace", {"trace": "a"}))
        blob.write_bytes(b"tampered")
        findings = audit_store(store.root)
        assert rules(findings) == ["cache/digest-mismatch"]
        assert findings[0].severity is Severity.ERROR
        assert "rebuild" in findings[0].message

    def test_byte_count_mismatch(self, store):
        index = store.root / INDEX_NAME
        data = json.loads(index.read_text())
        digest = next(iter(data["entries"]))
        entry = data["entries"][digest]
        entry["bytes"] = entry["bytes"] + 1
        index.write_text(json.dumps(data))
        # Hash still matches; only the recorded size is wrong.
        assert rules(audit_store(store.root)) == ["cache/index-entry"]

    def test_orphan_blob_is_a_warning(self, store):
        orphan = store.root / blob_relpath("ab" * 32)
        orphan.parent.mkdir(parents=True, exist_ok=True)
        orphan.write_bytes(b"stray")
        findings = audit_store(store.root)
        assert rules(findings) == ["cache/orphan-blob"]
        assert findings[0].severity is Severity.WARNING


class TestRunPathRouting:
    def test_store_directory_target(self, store):
        assert audit_run_path(store.root) == []

    def test_run_dir_with_embedded_store(self, store, tmp_path):
        blob = store.blob_path(artifact_digest("trace", {"trace": "a"}))
        blob.write_bytes(b"tampered")
        findings = audit_run_path(store.root.parent)
        assert "cache/digest-mismatch" in rules(findings)

    def test_store_child_suppresses_manifest_missing(self, store):
        """A run directory whose only content is a store is not a
        'run left no record' situation."""
        findings = audit_run_path(store.root.parent)
        assert "manifest/missing" not in rules(findings)

    def test_empty_dir_still_reports_manifest_missing(self, tmp_path):
        assert rules(audit_run_path(tmp_path)) == ["manifest/missing"]
