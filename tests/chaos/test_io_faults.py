"""Injected io faults: the documented post-state of every surface.

Each test pins one cell of the crash matrix in
``docs/crash-consistency.md``: inject a fault at a named write site,
then assert exactly what the matrix guarantees survives on disk.
"""

from __future__ import annotations

import os

import pytest

from repro import obs
from repro.chaos import sites
from repro.chaos.plan import FaultPlan, Injection
from repro.errors import (
    ObservabilityError,
    PerfError,
    RunnerError,
    SimulatedCrash,
    SimulatedKill,
)
from repro.io import atomic_write_text
from repro.obs.perf.history import append_record
from repro.obs.sinks import JsonlSink
from repro.runner.journal import CheckpointJournal, load_journal
from repro.store import ArtifactStore, artifact_digest


@pytest.fixture(autouse=True)
def clean_hook():
    sites.uninstall()
    yield
    sites.uninstall()


def inject(site: str, point: str, error: str, **kwargs) -> FaultPlan:
    plan = FaultPlan(
        [Injection(site=site, point=point, error=error, **kwargs)]
    )
    sites.install(plan)
    return plan


def tmp_files(directory) -> list[str]:
    return sorted(p.name for p in directory.rglob("*.tmp"))


class TestAtomicWriter:
    """Rows 1-3 of the matrix: the atomic-replace surfaces."""

    @pytest.mark.parametrize("point", ["before", "data", "fsync"])
    @pytest.mark.parametrize("error", ["enospc", "eio"])
    def test_disk_error_leaves_no_temp(self, tmp_path, point, error):
        inject("io.atomic_writer", point, error)
        with pytest.raises(OSError):
            atomic_write_text(tmp_path / "out.json", "{}\n")
        assert not (tmp_path / "out.json").exists()
        assert tmp_files(tmp_path) == []

    def test_failed_replace_unlinks_temp(self, tmp_path, monkeypatch):
        """The rename itself failing must clean up too, not only the
        faults injected before it."""
        real_replace = os.replace

        def failing_replace(src, dst):
            raise OSError("injected rename failure")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="rename"):
            atomic_write_text(tmp_path / "out.json", "{}\n")
        monkeypatch.setattr(os, "replace", real_replace)
        assert not (tmp_path / "out.json").exists()
        assert tmp_files(tmp_path) == []

    def test_kill_unwinds_and_cleans(self, tmp_path):
        inject("io.atomic_writer", "data", "kill")
        with pytest.raises(SimulatedKill):
            atomic_write_text(tmp_path / "out.json", "{}\n")
        assert not (tmp_path / "out.json").exists()
        assert tmp_files(tmp_path) == []

    def test_crash_strands_temp(self, tmp_path):
        """A power cut gets no cleanup: the temp file survives for the
        resume sweep / gc to reclaim."""
        inject("io.atomic_writer", "data", "crash")
        with pytest.raises(SimulatedCrash):
            atomic_write_text(tmp_path / "out.json", "payload\n")
        assert not (tmp_path / "out.json").exists()
        (stranded,) = tmp_path.rglob("*.tmp")
        assert stranded.read_text() == "payload\n"

    def test_torn_strands_half_written_temp(self, tmp_path):
        inject("io.atomic_writer", "data", "torn")
        with pytest.raises(SimulatedCrash):
            atomic_write_text(tmp_path / "out.json", "0123456789")
        assert not (tmp_path / "out.json").exists()
        (stranded,) = tmp_path.rglob("*.tmp")
        assert stranded.read_text() == "01234"

    def test_crash_after_replace_keeps_target(self, tmp_path):
        """``after`` models a crash the writer never observed: the
        rename already committed, so the new content is durable."""
        inject("io.atomic_writer", "after", "crash")
        with pytest.raises(SimulatedCrash):
            atomic_write_text(tmp_path / "out.json", "committed\n")
        assert (tmp_path / "out.json").read_text() == "committed\n"

    def test_old_content_survives_failed_overwrite(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_text(target, "old\n")
        inject("io.atomic_writer", "fsync", "eio")
        with pytest.raises(OSError):
            atomic_write_text(target, "new\n")
        assert target.read_text() == "old\n"


class TestJournal:
    def test_disk_error_surfaces_as_runner_error(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "checkpoint.jsonl")
        journal.append({"type": "batch", "n": 1})
        inject("runner.journal", "data", "eio")
        with pytest.raises(RunnerError, match="journal"):
            journal.append({"type": "task", "key": "t:1"})
        journal.close()

    def test_torn_append_leaves_replayable_prefix(self, tmp_path):
        path = tmp_path / "checkpoint.jsonl"
        journal = CheckpointJournal(path)
        journal.append(
            {"type": "batch", "format": "repro/checkpoint", "grid": "g"}
        )
        journal.append({"type": "task", "key": "t:1", "status": "ok"})
        inject("runner.journal", "data", "torn")
        with pytest.raises(SimulatedCrash):
            journal.append({"type": "task", "key": "t:2", "status": "ok"})
        journal.close()
        state = load_journal(path)
        assert state.truncated
        assert set(state.completed()) == {"t:1"}


class TestSink:
    def test_disk_error_closes_sink(self, tmp_path):
        sink = JsonlSink(tmp_path / "run.jsonl")
        sink.emit({"type": "span", "n": 1})
        inject("obs.sink", "data", "eio")
        with pytest.raises(ObservabilityError):
            sink.emit({"type": "span", "n": 2})
        assert sink.closed
        with pytest.raises(ObservabilityError, match="closed"):
            sink.emit({"type": "span", "n": 3})

    def test_kill_propagates_through_session_teardown(self, tmp_path):
        """A kill during a span-end emit must surface as the kill, not
        as a secondary 'sink is closed' error from an enclosing span's
        finally block."""
        inject("obs.sink", "data", "kill")
        session = obs.RunSession(
            command="t",
            metrics_out=tmp_path / "run.jsonl",
            with_git=False,
        )
        with pytest.raises(SimulatedKill):
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        session.abort()

    def test_abort_skips_manifest(self, tmp_path):
        run_file = tmp_path / "run.jsonl"
        session = obs.RunSession(
            command="t", metrics_out=run_file, with_git=False
        )
        with obs.span("work"):
            pass
        session.abort()
        assert session.manifest is None
        assert "manifest" not in run_file.read_text()

    def test_finish_tolerates_dead_sink(self, tmp_path):
        inject("obs.sink", "data", "eio")
        session = obs.RunSession(
            command="t",
            metrics_out=tmp_path / "run.jsonl",
            with_git=False,
        )
        with pytest.raises(ObservabilityError):
            with obs.span("work"):
                pass
        # The manifest emit cannot land on the dead sink, but finish()
        # must still restore the runtime and return the manifest.
        manifest = session.finish()
        assert manifest["command"] == "t"


class TestPerfHistory:
    def test_disk_error_surfaces_as_perf_error(self, tmp_path):
        inject("perf.history", "data", "eio")
        with pytest.raises(PerfError, match="ledger"):
            append_record(
                tmp_path / "HISTORY.jsonl",
                {"format": "repro/perf-history"},
            )


class TestStorePut:
    def test_write_failure_degrades_to_uncached(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        digest = artifact_digest("trg", {"k": 1})
        inject("store.blob", "data", "enospc")
        assert store.put(digest, "trg", b"payload") is False
        assert store.get(digest) is None

    def test_get_or_build_survives_write_failure(self, tmp_path):
        from tests.conftest import small_trg_pair as build

        store = ArtifactStore(tmp_path / "s")
        inject("store.blob", "data", "enospc")
        value = store.get_or_build("trg", {"k": 1}, build)
        # The build's value flows through even though caching failed.
        assert value == build()
