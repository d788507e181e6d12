"""JSONL event sinks, the end-of-run manifest, and the one JSONL reader.

A *run file* is JSON Lines: one ``{"type": "span", ...}`` event per
finished span, streamed as the run progresses, terminated by a single
``{"type": "manifest", "format": "repro/manifest", ...}`` object that
echoes the run configuration and snapshots every metric — the artifact
``repro-layout report`` renders and ``repro.analysis`` audits.

Every append-only record file in the repo (run files, the checkpoint
journal, the benchmark ledger) is parsed by :func:`read_jsonl`, and
every appending writer calls :func:`cut_torn_tail` before its first
append, so a torn tail means the same thing to every reader.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping, NamedTuple, Sequence

from repro.chaos.sites import fire as _chaos_fire
from repro.errors import (
    AnalysisError,
    ManifestMissingError,
    ObservabilityError,
)
from repro.obs.runtime import Observability
from repro.obs.tracer import SpanRecord

MANIFEST_FORMAT = "repro/manifest"
MANIFEST_VERSION = 1


class JsonlLines(NamedTuple):
    """A JSONL file as :func:`read_jsonl` parsed it."""

    #: ``(line number, object)`` per complete line that holds one.
    records: list[tuple[int, dict[str, Any]]]
    #: ``(line number, problem)`` per complete line that does not.
    defects: list[tuple[int, str]]
    #: True when non-blank bytes follow the last newline.
    torn: bool

    def last_line_torn(self) -> "JsonlLines":
        """These lines with a defective last line counted as torn.

        A torn write can still get its newline out; the fsync-per-record
        journal (and the crash auditor's run-file check) treat such a
        final line as the torn tail rather than as corruption.
        """
        if self.torn or not self.defects:
            return self
        if self.records and self.records[-1][0] > self.defects[-1][0]:
            return self
        return JsonlLines(self.records, self.defects[:-1], True)


def read_jsonl(path: str | Path) -> JsonlLines:
    """Parse a JSON Lines file, never raising on its content.

    Each complete (newline-terminated, non-blank) line becomes a record
    when it holds a JSON object, and a defect otherwise.  Bytes after
    the last newline are a write cut short: they are dropped, and
    :attr:`JsonlLines.torn` says whether any were non-blank.  Raises
    :class:`OSError` only when the file cannot be read.
    """
    body, _, tail = Path(path).read_bytes().rpartition(b"\n")
    records: list[tuple[int, dict[str, Any]]] = []
    defects: list[tuple[int, str]] = []
    for number, raw in enumerate(body.split(b"\n"), start=1):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw.decode("utf-8"))
        except json.JSONDecodeError as error:
            defects.append((number, f"not valid JSON: {error.msg}"))
            continue
        except (UnicodeDecodeError, RecursionError):
            defects.append((number, "not valid JSON"))
            continue
        if isinstance(record, dict):
            records.append((number, record))
        else:
            defects.append((number, "not an object"))
    return JsonlLines(records, defects, bool(tail.strip()))


def cut_torn_tail(path: str | Path) -> None:
    """Truncate *path* after its last newline; no-op when it is absent.

    An append after a torn tail would glue the new record onto the
    fragment, losing it and leaving a corrupt line mid-file, so every
    appending writer calls this before its first append.
    """
    try:
        with open(path, "r+b") as handle:
            data = handle.read()
            keep = data.rfind(b"\n") + 1
            if keep < len(data):
                handle.truncate(keep)
    except FileNotFoundError:
        return


def sniff_format(path: str | Path) -> str | None:
    """The ``format`` stamp of a JSON object file, or of a JSONL file's
    first record; ``None`` for anything unreadable or unstamped.

    Cheap enough for routing, and never raises.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            head = handle.readline()
            while head.isspace():
                head = handle.readline()
            try:
                data = json.loads(head)
            except json.JSONDecodeError:
                data = json.loads(head + handle.read())
    except (OSError, ValueError, RecursionError):
        return None
    stamp = data.get("format") if isinstance(data, dict) else None
    return stamp if isinstance(stamp, str) else None


class JsonlSink:
    """Append JSON objects, one per line, to a file.

    The file is opened lazily on the first event (creating parent
    directories), so constructing a sink for a path that never receives
    events leaves no file behind.  The file is truncated on open (a run
    file holds one run) and read back by :func:`read_jsonl`.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle = None
        self._closed = False

    def emit(self, event: Mapping[str, Any]) -> None:
        """Append one event line (chaos write site ``obs.sink``).

        A failed write raises
        :class:`~repro.errors.ObservabilityError` and closes the
        sink: after a failure the stream may end mid-line, and
        appending more events would corrupt the line *after* the torn
        one — a closed sink keeps the damage to the tail, which
        :func:`read_jsonl` drops.
        """
        if self._closed:
            raise ObservabilityError(
                f"sink {self.path} is closed; cannot emit"
            )
        line = json.dumps(event, sort_keys=True) + "\n"
        try:
            try:
                _chaos_fire("obs.sink", "before")
                if self._handle is None:
                    self.path.parent.mkdir(parents=True, exist_ok=True)
                    self._handle = self.path.open("w", encoding="utf-8")
                _chaos_fire(
                    "obs.sink", "data",
                    handle=self._handle, payload=line,
                )
                self._handle.write(line)
            except OSError as error:
                raise ObservabilityError(
                    f"cannot write to sink {self.path}: {error}"
                ) from error
        except BaseException:
            self.close()
            raise

    @property
    def closed(self) -> bool:
        """True once the sink died or was closed; emits raise."""
        return self._closed

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._closed = True


def load_run_manifest(path: str | Path) -> dict[str, Any]:
    """The manifest terminating a JSONL run file.

    A torn tail is dropped, as everywhere.  Raises
    :class:`~repro.errors.AnalysisError` when the file cannot be read
    or a complete line is corrupt, and its subclass
    :class:`~repro.errors.ManifestMissingError` when no manifest line
    survives — callers that want a finding instead use
    :func:`repro.analysis.audit_run_path`.
    """
    try:
        lines = read_jsonl(path)
    except OSError as error:
        raise AnalysisError(f"cannot read {path}: {error}") from error
    if lines.defects:
        number, problem = lines.defects[0]
        raise AnalysisError(f"{path}:{number}: {problem}")
    for _, record in reversed(lines.records):
        if record.get("format") == MANIFEST_FORMAT:
            return record
    raise ManifestMissingError(
        f"{path} contains no run manifest; was the run finished "
        "with --metrics-out?"
    )


def span_event(record: SpanRecord, depth: int) -> dict[str, Any]:
    """Flat JSONL rendering of one finished span."""
    event: dict[str, Any] = {
        "type": "span",
        "name": record.name,
        "depth": depth,
        "start": record.start,
        "duration": record.duration,
    }
    if record.attributes:
        event["attributes"] = dict(record.attributes)
    if record.error is not None:
        event["error"] = record.error
    return event


def build_manifest(
    command: str,
    state: Observability,
    config: Mapping[str, Any] | None = None,
    git: str | None = None,
    unix_time: float | None = None,
) -> dict[str, Any]:
    """Assemble the end-of-run manifest from an observability state."""
    return {
        "type": "manifest",
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "command": command,
        "config": dict(config) if config else {},
        "git": git,
        "unix_time": unix_time,
        "elapsed": state.tracer.total_time(),
        "timings": [root.to_dict() for root in state.tracer.roots],
        "metrics": state.registry.snapshot(),
    }


def self_times(
    timings: Sequence[Mapping[str, Any]],
) -> dict[str, dict[str, float]]:
    """Fold a manifest timing tree into per-stage ``self_s``,
    ``total_s`` and ``calls``, sorted by stage key.

    A span's key is its name, or ``name.algorithm`` when it carries an
    ``algorithm`` attribute (``place.GBSC``).  Its self time is its
    duration minus its direct children's durations, so the self times
    of every stage sum to the root durations: the manifest's
    ``elapsed``.
    """
    stages: dict[str, dict[str, float]] = {}
    pending = list(timings)
    while pending:
        node = pending.pop()
        children = node.get("children") or ()
        duration = float(node.get("duration") or 0.0)
        algorithm = (node.get("attributes") or {}).get("algorithm")
        key = node["name"] if algorithm is None else f"{node['name']}.{algorithm}"
        stage = stages.setdefault(
            key, {"self_s": 0.0, "total_s": 0.0, "calls": 0}
        )
        stage["self_s"] += duration - sum(
            float(child.get("duration") or 0.0) for child in children
        )
        stage["total_s"] += duration
        stage["calls"] += 1
        pending.extend(children)
    return {key: stages[key] for key in sorted(stages)}
