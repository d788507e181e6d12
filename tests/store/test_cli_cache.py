"""The ``repro-layout cache {stats,gc,verify}`` maintenance commands."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.store import ArtifactStore, artifact_digest, blob_relpath


@pytest.fixture
def populated(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    store.put(artifact_digest("trace", {"trace": "a"}), "trace", b"x" * 10)
    store.put(artifact_digest("trg", {"trace": "a"}), "trg", b"y" * 20)
    return store


class TestStats:
    def test_reports_totals_and_kinds(self, populated, capsys):
        assert main(["cache", "stats", str(populated.root)]) == 0
        out = capsys.readouterr().out
        assert "2 artifact(s)" in out
        assert "trace" in out and "trg" in out

    def test_missing_directory_exits_2(self, tmp_path, capsys):
        assert main(["cache", "stats", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_fresh_handle_reports_no_accesses(self, populated, capsys):
        assert main(["cache", "stats", str(populated.root)]) == 0
        out = capsys.readouterr().out
        assert "session: 0 hit(s), 0 miss(es)" in out
        assert "hit rate n/a (no accesses)" in out


class TestVerify:
    def test_clean_store_exits_0(self, populated, capsys):
        assert main(["cache", "verify", str(populated.root)]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_tampered_blob_exits_1_with_finding(self, populated, capsys):
        digest = artifact_digest("trace", {"trace": "a"})
        blob = populated.blob_path(digest)
        blob.write_bytes(blob.read_bytes() + b"!")
        assert main(["cache", "verify", str(populated.root)]) == 1
        out = capsys.readouterr().out
        assert "cache/digest-mismatch" in out

    def test_missing_blob_exits_1(self, populated, capsys):
        populated.blob_path(
            artifact_digest("trg", {"trace": "a"})
        ).unlink()
        assert main(["cache", "verify", str(populated.root)]) == 1
        assert "cache/missing-blob" in capsys.readouterr().out


class TestGc:
    def test_removes_orphans(self, populated, capsys):
        orphan = populated.root / blob_relpath("ee" * 32)
        orphan.parent.mkdir(parents=True, exist_ok=True)
        orphan.write_bytes(b"stray")
        assert main(["cache", "gc", str(populated.root)]) == 0
        assert not orphan.exists()
        assert "removed" in capsys.readouterr().out

    def test_max_bytes_evicts(self, populated, capsys):
        assert (
            main(
                [
                    "cache",
                    "gc",
                    str(populated.root),
                    "--max-bytes",
                    "20",
                ]
            )
            == 0
        )
        store = ArtifactStore(populated.root)
        assert store.stats()["bytes"] <= 20


class TestCheckIntegration:
    def test_check_routes_store_directories(self, populated, capsys):
        """``repro-layout check`` applies the cache/* rules both to a
        store directory and to a run directory containing one."""
        assert main(["check", str(populated.root)]) == 0
        capsys.readouterr()

        run_dir = populated.root.parent
        digest = artifact_digest("trace", {"trace": "a"})
        blob = populated.blob_path(digest)
        blob.write_bytes(blob.read_bytes() + b"!")
        assert main(["check", str(run_dir)]) == 1
        assert "cache/digest-mismatch" in capsys.readouterr().out
