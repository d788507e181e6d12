"""ArtifactStore behaviour: round trips, corruption, gc, write gating."""

from __future__ import annotations

import json

import pytest

from repro.errors import StoreError
from repro.store import (
    ArtifactStore,
    INDEX_NAME,
    STORE_FORMAT,
    artifact_digest,
    blob_relpath,
)
from tests.conftest import small_trg_pair as trg_pair

KEY = {"trace": "t" * 64}
DIGEST = artifact_digest("trg", KEY)


def tamper(store: ArtifactStore, digest: str) -> None:
    path = store.blob_path(digest)
    path.write_bytes(path.read_bytes() + b"XX")


class TestPutGet:
    def test_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        assert store.get(DIGEST) is None
        assert store.put(DIGEST, "trg", b"payload", KEY)
        assert store.get(DIGEST) == b"payload"

    def test_get_survives_corruption(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        store.put(DIGEST, "trg", b"payload")
        tamper(store, DIGEST)
        assert store.get(DIGEST) is None

    def test_new_process_view_is_merged_in(self, tmp_path):
        first = ArtifactStore(tmp_path / "s")
        second = ArtifactStore(tmp_path / "s")
        first.put(DIGEST, "trg", b"payload")
        # `second` opened before the write; get() refreshes from disk.
        assert second.get(DIGEST) == b"payload"

    def test_corrupt_index_is_rejected_at_open(self, tmp_path):
        root = tmp_path / "s"
        root.mkdir()
        (root / INDEX_NAME).write_text("{not json")
        with pytest.raises(StoreError):
            ArtifactStore(root)

    def test_foreign_index_is_rejected(self, tmp_path):
        root = tmp_path / "s"
        root.mkdir()
        (root / INDEX_NAME).write_text(json.dumps({"format": "other"}))
        with pytest.raises(StoreError):
            ArtifactStore(root)

    def test_root_must_be_a_directory(self, tmp_path):
        flat = tmp_path / "flat"
        flat.write_text("")
        with pytest.raises(StoreError):
            ArtifactStore(flat)


class TestWriteGating:
    def test_readonly_store_skips_writes(self, tmp_path):
        store = ArtifactStore(tmp_path / "s", readonly=True)
        assert not store.writable
        assert not store.put(DIGEST, "trg", b"payload")
        assert store.get(DIGEST) is None

    def test_forked_worker_is_readonly(self, tmp_path):
        """A store whose owner pid is another process (a forked child)
        never writes — only the process that opened it does."""
        store = ArtifactStore(tmp_path / "s")
        store._owner_pid -= 1
        assert not store.writable
        assert not store.put(DIGEST, "trg", b"payload")

    def test_gc_requires_writable(self, tmp_path):
        store = ArtifactStore(tmp_path / "s", readonly=True)
        with pytest.raises(StoreError):
            store.gc()


class TestGetOrBuild:
    def test_build_once_then_hit(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        calls = []

        def build():
            calls.append(1)
            return trg_pair()

        first = store.get_or_build("trg", KEY, build)
        second = store.get_or_build("trg", KEY, build)
        assert len(calls) == 1
        assert first == second
        assert (store.hits, store.misses) == (1, 1)

    def test_corrupt_blob_rebuilds_transparently(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        build = trg_pair

        built = store.get_or_build("trg", KEY, build)
        tamper(store, artifact_digest("trg", KEY))
        rebuilt = store.get_or_build("trg", KEY, build)
        assert rebuilt == built
        assert store.misses == 2
        # The rebuild overwrote the tampered blob: next call hits.
        store.get_or_build("trg", KEY, build)
        assert store.hits == 1

    def test_v1_json_blob_is_rebuilt_at_its_digest(self, tmp_path):
        """A blob in the retired JSON layout (version 1) still passes
        its content hash but no longer decodes: a miss, a rebuild that
        overwrites the same digest, then a hit."""
        store = ArtifactStore(tmp_path / "s")
        graph = {
            "format": "repro/graph",
            "version": 1,
            "nodes": ["a", "b"],
            "edges": [["a", "b", 2.0]],
        }
        v1 = {
            "format": "repro/store-trgs",
            "version": 1,
            "select": graph,
            "place": graph,
        }
        store.put(DIGEST, "trg", json.dumps(v1).encode(), KEY)
        calls = []

        def build():
            calls.append(1)
            return trg_pair()

        built = store.get_or_build("trg", KEY, build)
        assert (calls, store.hits, store.misses) == ([1], 0, 1)
        assert store.stats()["entries"] == 1
        assert store.blob_path(DIGEST).read_bytes()[:2] == b"PK"
        assert store.get_or_build("trg", KEY, build) == built
        assert (calls, store.hits, store.misses) == ([1], 1, 1)

    def test_unknown_kind_is_an_error(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        with pytest.raises(StoreError):
            store.get_or_build("layout", {}, lambda: None)


class TestStatsAndGc:
    def test_stats_split_by_kind(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        store.put(artifact_digest("trace", {"trace": "1"}), "trace", b"abc")
        store.put(artifact_digest("trace", {"trace": "2"}), "trace", b"defg")
        store.put(artifact_digest("trg", {"trace": "1"}), "trg", b"hi")
        stats = store.stats()
        assert stats["entries"] == 3
        assert stats["bytes"] == 9
        assert stats["kinds"]["trace"] == {"entries": 2, "bytes": 7}
        assert stats["kinds"]["trg"] == {"entries": 1, "bytes": 2}

    def test_stats_hit_rate_none_until_first_lookup(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        store.put(DIGEST, "trg", b"payload")
        assert store.stats()["hit_rate"] is None

    def test_stats_hit_rate_derived_from_counters(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        store.get_or_build("trg", {"trace": "1"}, trg_pair)  # miss
        store.get_or_build("trg", {"trace": "1"}, trg_pair)  # hit
        stats = store.stats()
        assert (stats["hits"], stats["misses"]) == (1, 1)
        assert stats["hit_rate"] == 0.5

    def test_gc_drops_entries_with_missing_blobs(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        store.put(DIGEST, "trg", b"payload")
        store.blob_path(DIGEST).unlink()
        summary = store.gc()
        assert summary["removed_entries"] == 1
        assert summary["kept_entries"] == 0
        assert store.get(DIGEST) is None

    def test_gc_removes_orphan_blobs(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        store.put(DIGEST, "trg", b"payload")
        orphan = store.root / blob_relpath("ff" * 32)
        orphan.parent.mkdir(parents=True, exist_ok=True)
        orphan.write_bytes(b"stray")
        summary = store.gc()
        assert summary["removed_blobs"] == 1
        assert summary["freed_bytes"] == len(b"stray")
        assert not orphan.exists()
        assert store.get(DIGEST) == b"payload"

    def test_gc_max_bytes_evicts_oldest_first(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        digests = [
            artifact_digest("trg", {"trace": str(n)}) for n in range(3)
        ]
        for digest in digests:
            store.put(digest, "trg", b"x" * 10)
        summary = store.gc(max_bytes=15)
        assert summary["kept_entries"] == 1
        assert summary["kept_bytes"] == 10
        # Insertion order is eviction order: only the newest survives.
        assert store.get(digests[0]) is None
        assert store.get(digests[1]) is None
        assert store.get(digests[2]) == b"x" * 10

    def test_gc_is_idempotent(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        store.put(DIGEST, "trg", b"payload")
        store.gc()
        summary = store.gc()
        assert summary["removed_entries"] == 0
        assert summary["removed_blobs"] == 0
        assert summary["kept_entries"] == 1


class TestStoreWithRetiredKinds:
    """Stores written before the ``pairdb`` and ``wcg`` kinds were
    retired hold entries of both: they still open, audit clean, report
    stats and serve their trace and TRG hits, and nothing reads the
    retired entries."""

    @pytest.fixture
    def old_store(self, tmp_path, tiny_workload):
        """A store as the last release with both kinds left it: trace
        and trg entries from a build, plus one ``wcg`` and one
        ``pairdb`` entry in that release's blob layouts and digest
        scheme.  Yields the root, the built context and the digest of
        every entry by kind."""
        import io

        import numpy as np

        from repro.cache.config import PAPER_CACHE_2WAY
        from repro.eval.experiment import build_context
        from repro.io import write_npz
        from repro.store import fingerprint, trace_content_fingerprint
        from repro.workloads.spec import clear_trace_memo

        root = tmp_path / "s"
        store = ArtifactStore(root)
        train = tiny_workload.trace("train", store)
        context = build_context(
            train, PAPER_CACHE_2WAY, with_pair_db=True, store=store
        )
        table = {
            "names": np.array(["p", "q", "r"]),
            "chunks": np.array([-1, -1, -1], dtype=np.int64),
        }
        trace_fp = trace_content_fingerprint(train)
        retired = {
            "wcg": (
                {"trace": trace_fp},
                {
                    **table,
                    "rowlen": np.array([1, 1, 0], dtype=np.int64),
                    "col": np.array([1, 0], dtype=np.int32),
                    "weight": np.array([2.0, 2.0]),
                },
            ),
            "pairdb": (
                {
                    "trace": trace_fp,
                    "popular": sorted(context.popular),
                    "capacity": 2 * PAPER_CACHE_2WAY.size,
                },
                {
                    **table,
                    "blocks": np.array([0], dtype=np.int64),
                    "rowlen": np.array([1], dtype=np.int64),
                    "r": np.array([1], dtype=np.int32),
                    "s": np.array([2], dtype=np.int32),
                    "count": np.array([3], dtype=np.int64),
                    "stats": np.array([5.0, 2.0, 0.0]),
                },
            ),
        }
        digests = {
            entry["kind"]: digest
            for digest, entry in store._index.items()
        }
        for kind, (key, arrays) in retired.items():
            buffer = io.BytesIO()
            write_npz(buffer, f"repro/store-{kind}", 2, arrays)
            digests[kind] = fingerprint({"kind": kind, "salt": 1, "key": key})
            assert store.put(digests[kind], kind, buffer.getvalue(), key)
        clear_trace_memo()
        return root, context, digests

    def test_opens_audits_and_lists_both_kinds(self, old_store, capsys):
        from repro.analysis.store_audit import audit_store
        from repro.cli import main

        root, _, _ = old_store
        kinds = ArtifactStore(root).stats()["kinds"]
        assert set(kinds) == {"pairdb", "trace", "trg", "wcg"}
        assert kinds["pairdb"]["entries"] == kinds["wcg"]["entries"] == 1
        assert audit_store(root) == []
        assert main(["check", str(root)]) == 0
        assert main(["cache", "verify", str(root)]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", str(root)]) == 0
        out = capsys.readouterr().out
        assert "pairdb" in out and "wcg" in out

    def test_serves_trace_and_trg_hits_only(
        self, old_store, tiny_workload, monkeypatch
    ):
        from repro.cache.config import PAPER_CACHE_2WAY
        from repro.eval.experiment import build_context
        from repro.store import BUILDER_SALTS, fingerprint

        root, built, digests = old_store
        assert BUILDER_SALTS == {"trace": 1, "trg": 1}
        store = ArtifactStore(root)
        for kind in ("trace", "trg"):
            entry = store._index[digests[kind]]
            assert digests[kind] == fingerprint(
                {"kind": kind, "salt": 1, "key": entry["key"]}
            )
        read = []
        get = store.get
        monkeypatch.setattr(
            store, "get", lambda digest: read.append(digest) or get(digest)
        )

        train = tiny_workload.trace("train", store)
        context = build_context(
            train, PAPER_CACHE_2WAY, with_pair_db=True, store=store
        )
        assert (store.hits, store.misses) == (2, 0)
        assert sorted(read) == sorted([digests["trace"], digests["trg"]])
        assert context.wcg == built.wcg
        assert context.trgs.select == built.trgs.select
        assert context.trgs.place == built.trgs.place
        for block in built.pair_db.blocks:
            assert list(context.pair_db.pairs_for(block).items()) == list(
                built.pair_db.pairs_for(block).items()
            )
