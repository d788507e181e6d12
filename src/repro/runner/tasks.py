"""Task model for the batch runner: addressable units of a grid.

A batch is a *deterministically ordered* tuple of :class:`TaskSpec`s,
each naming a stable task **key** (the unit of checkpointing) and the
callable that computes its JSON-able payload, which the checkpoint
journal records inline.  Task
bodies receive a :class:`RunnerEnv` — a process-local memo of shared
expensive state (profiled contexts, loaded traces) that is *not*
checkpointed: it is deterministic derived data, rebuilt lazily on
resume by whichever pending task first needs it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.chaos.sites import fire as _chaos_fire
from repro.errors import RunnerError


class RunnerEnv:
    """Lazily-built shared state for task bodies within one process."""

    def __init__(self) -> None:
        self._values: dict[str, Any] = {}

    def get(self, key: str, build: Callable[[], Any]) -> Any:
        """Return the memoised value for *key*, building it on first
        use."""
        if key not in self._values:
            self._values[key] = build()
        return self._values[key]


@dataclass(frozen=True)
class TaskSpec:
    """One addressable unit of work in a batch."""

    key: str
    kind: str
    run: Callable[[RunnerEnv], dict[str, Any]]

    def execute(self, env: RunnerEnv) -> dict[str, Any]:
        """One attempt at the task body, between the ``runner.task``
        site's ``start`` and ``finish`` points."""
        _chaos_fire("runner.task", "start", key=self.key)
        payload = self.run(env)
        if not isinstance(payload, dict):
            raise RunnerError(
                f"task {self.key} returned "
                f"{type(payload).__name__}, expected a JSON-able "
                "dict payload"
            )
        _chaos_fire("runner.task", "finish", key=self.key)
        return payload


@dataclass(frozen=True)
class Batch:
    """A named, content-addressed grid of tasks plus its report
    renderer.

    ``render`` consumes the payloads of *completed* tasks (keyed by
    task key) and must be a pure function of them, so an interrupted
    and resumed batch reproduces the uninterrupted report byte for
    byte.
    """

    command: str
    grid_id: str
    tasks: tuple[TaskSpec, ...]
    render: Callable[[Mapping[str, dict[str, Any]]], str]
    metadata: Mapping[str, Any] = field(default_factory=dict)


def grid_fingerprint(config: Mapping[str, Any]) -> str:
    """Stable digest of a batch configuration.

    Written into the journal header and checked on ``--resume`` so a
    checkpoint can never silently be replayed against a different
    grid (other workload, cache geometry, run count, ...).
    """
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
