"""Crash-safe JSONL checkpoint journal for batch runs.

The journal is the runner's source of truth: one append-only JSON
Lines file (``checkpoint.jsonl``) inside the checkpoint directory,
beginning with a *batch header* that pins the grid identity, followed
by one *task record* per completed or failed task.  Every record is
flushed **and fsynced** before the runner moves on, so the journal
survives ``SIGKILL`` at any instant with at most one torn trailing
line — which :func:`load_journal` detects and drops, exactly as a
database log replay would, and which a resumed run cuts off before
its first append.

Records::

    {"type": "batch", "format": "repro/checkpoint", "version": 1,
     "command": "compare", "grid": "<sha256>", "tasks": 13, ...}
    {"type": "task", "key": "cell:perl:GBSC:p000", "status": "ok",
     "kind": "cell", "elapsed": 0.41, "retries": 0,
     "payload": {"algorithm": "GBSC", "fetches": 20480,
                 "miss_rate": 0.0312, "misses": 639, "seed": 0}}
    {"type": "task", "key": "...", "status": "failed",
     "error": "RunnerError", "message": "...", "transient": false,
     "elapsed": 0.02, "retries": 2}
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.chaos.sites import fire as _chaos_fire
from repro.errors import RunnerError

CHECKPOINT_FORMAT = "repro/checkpoint"
CHECKPOINT_VERSION = 1

#: Journal filename inside a checkpoint directory.
JOURNAL_NAME = "checkpoint.jsonl"


class CheckpointJournal:
    """Append-only, fsync-per-record JSONL writer.

    The file is opened lazily in append mode on the first record, so
    constructing a journal never touches the filesystem, and reopening
    an existing journal for resume first cuts it back to the lines
    :func:`load_journal` keeps (:func:`_cut_to_kept_lines`), then appends.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle = None
        self._closed = False

    def append(self, record: Mapping[str, Any]) -> None:
        """Durably append one record: write, flush, fsync.

        A filesystem failure surfaces as
        :class:`~repro.errors.RunnerError` (the journal is the
        runner's source of truth — an unjournalled task must not look
        committed); the chaos hook fires under the
        ``runner.journal`` write site.
        """
        if self._closed:
            raise RunnerError(
                f"checkpoint journal {self.path} is closed; cannot append"
            )
        line = json.dumps(record, sort_keys=True) + "\n"
        try:
            _chaos_fire("runner.journal", "before")
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                _cut_to_kept_lines(self.path)
                self._handle = self.path.open("a", encoding="utf-8")
            _chaos_fire(
                "runner.journal", "data",
                handle=self._handle, payload=line,
            )
            self._handle.write(line)
            self._handle.flush()
            _chaos_fire("runner.journal", "fsync")
            os.fsync(self._handle.fileno())
            _chaos_fire("runner.journal", "after")
        except OSError as error:
            raise RunnerError(
                f"cannot append to checkpoint journal {self.path}: "
                f"{error}"
            ) from error

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._closed = True

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self.close()
        return False


def _cut_to_kept_lines(path: Path) -> None:
    """Truncate *path* after the last line :func:`load_journal` keeps.

    Besides the bytes after the last newline, that drops a defective
    last line that did get its newline out: left in place, it would
    sit mid-file after the next append and make the journal corrupt.
    """
    from repro.obs.sinks import read_jsonl

    try:
        lines = read_jsonl(path)
    except FileNotFoundError:
        return
    with open(path, "r+b") as handle:
        data = handle.read()
        keep = data.rfind(b"\n") + 1
        if lines.last_line_torn().defects != lines.defects:
            # Keep only the lines before the defective one.
            keep = 0
            for _ in range(lines.defects[-1][0] - 1):
                keep = data.index(b"\n", keep) + 1
        if keep < len(data):
            handle.truncate(keep)


@dataclass(frozen=True)
class JournalState:
    """A parsed journal: header, task records, torn-tail marker."""

    header: dict[str, Any] | None
    entries: tuple[dict[str, Any], ...]
    truncated: bool

    def completed(self) -> dict[str, dict[str, Any]]:
        """Last successful record per task key (later entries win, so a
        task re-run after artifact repair supersedes its old record)."""
        done: dict[str, dict[str, Any]] = {}
        for entry in self.entries:
            if entry.get("status") == "ok" and "key" in entry:
                done[entry["key"]] = entry
        return done

    def failed(self) -> dict[str, dict[str, Any]]:
        """Last *failed* record per task key, excluding tasks that
        later completed."""
        done = self.completed()
        failures: dict[str, dict[str, Any]] = {}
        for entry in self.entries:
            key = entry.get("key")
            if entry.get("status") == "failed" and key not in done:
                failures[key] = entry
        return failures


def load_journal(path: str | Path) -> JournalState:
    """Parse a checkpoint journal, tolerating a torn final line.

    A process killed mid-append leaves a final line that is either
    incomplete JSON or lacks its newline; both are dropped and flagged
    via :attr:`JournalState.truncated`.  Corruption anywhere *else*
    means the file is not a journal this code wrote, and raises
    :class:`~repro.errors.RunnerError`.
    """
    from repro.obs.sinks import read_jsonl

    journal_path = Path(path)
    try:
        lines = read_jsonl(journal_path).last_line_torn()
    except OSError as error:
        raise RunnerError(
            f"cannot read checkpoint journal {journal_path}: {error}"
        ) from error
    if lines.defects:
        number, problem = lines.defects[0]
        raise RunnerError(
            f"{journal_path}:{number}: corrupt checkpoint journal "
            f"line: {problem}"
        )
    header: dict[str, Any] | None = None
    entries: list[dict[str, Any]] = []
    for _, record in lines.records:
        if record.get("type") == "batch":
            if header is None:
                header = record
        elif record.get("type") == "task":
            entries.append(record)
    return JournalState(
        header=header, entries=tuple(entries), truncated=lines.torn
    )
