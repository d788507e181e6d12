"""JSONL event sinks and the end-of-run manifest.

A *run file* is JSON Lines: one ``{"type": "span", ...}`` event per
finished span, streamed as the run progresses, terminated by a single
``{"type": "manifest", "format": "repro/manifest", ...}`` object that
echoes the run configuration and snapshots every metric — the artifact
``repro-layout report`` renders and ``repro.analysis`` audits.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.chaos.sites import fire as _chaos_fire
from repro.errors import ObservabilityError
from repro.obs.runtime import Observability
from repro.obs.tracer import SpanRecord

MANIFEST_FORMAT = "repro/manifest"
MANIFEST_VERSION = 1


class JsonlSink:
    """Append JSON objects, one per line, to a file.

    The file is opened lazily on the first event (creating parent
    directories), so constructing a sink for a path that never receives
    events leaves no file behind.
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
        one — a closed sink keeps the damage to the tail, which the
        lenient run-file readers tolerate.
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
