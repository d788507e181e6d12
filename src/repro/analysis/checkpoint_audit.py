"""Auditing batch-runner checkpoints: journal + artifacts.

A checkpoint directory is only worth resuming if its journal can be
trusted: every line must parse (except at most one torn tail, the
legitimate residue of a kill mid-append), the batch header must pin a
grid, and every completed-task record must reference an artifact that
exists and parses cleanly.  :func:`audit_checkpoint` verifies all of
this **without executing anything**, reporting structured
:class:`~repro.analysis.findings.Finding` objects on the same pipeline
as the layout/graph/manifest auditors, so ``repro-layout check CKPT/``
answers "will --resume see what the journal promises?".

Rules::

    checkpoint/missing     no journal where one was expected (error)
    checkpoint/parse       a non-tail journal line is not JSON (error)
    checkpoint/truncated   torn tail line dropped by replay (warning)
    checkpoint/header      missing or malformed batch header (error)
    checkpoint/entry       task record missing required keys, or a
                           malformed worker id (error; journals
                           from the removed parallel runner carry
                           one per task, and resume still reads them)
    checkpoint/artifact    completed task's artifact missing or
                           unparseable (error)
    checkpoint/duplicate   task completed more than once (warning —
                           replay is last-wins, but double work means
                           an artifact was repaired or a journal
                           merged)
    checkpoint/task-count  more completions than the header's task
                           count (error)
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.analysis.findings import Finding, Location, Severity
from repro.runner.journal import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    JOURNAL_NAME,
)


def _finding(
    rule: str,
    message: str,
    severity: Severity = Severity.ERROR,
    file: str | None = None,
    obj: str | None = None,
) -> Finding:
    return Finding(
        rule=rule,
        severity=severity,
        message=message,
        location=Location(file=file, obj=obj),
    )


def _audit_header(
    header: dict[str, Any] | None, file: str, findings: list[Finding]
) -> int | None:
    """Validate the batch header; returns its declared task count."""
    if header is None:
        findings.append(
            _finding(
                "checkpoint/header",
                "journal has no batch header record",
                file=file,
            )
        )
        return None
    if header.get("format") != CHECKPOINT_FORMAT:
        findings.append(
            _finding(
                "checkpoint/header",
                f"batch header format {header.get('format')!r} is not "
                f"{CHECKPOINT_FORMAT!r}",
                file=file,
            )
        )
    if header.get("version") != CHECKPOINT_VERSION:
        findings.append(
            _finding(
                "checkpoint/header",
                f"unsupported checkpoint version "
                f"{header.get('version')!r} (expected "
                f"{CHECKPOINT_VERSION})",
                file=file,
            )
        )
    if not isinstance(header.get("grid"), str) or not header.get("grid"):
        findings.append(
            _finding(
                "checkpoint/header",
                "batch header does not pin a grid fingerprint",
                file=file,
            )
        )
    tasks = header.get("tasks")
    return tasks if isinstance(tasks, int) else None


def _audit_task_record(
    record: dict[str, Any],
    number: int,
    directory: Path,
    file: str,
    findings: list[Finding],
    completed_keys: list[str],
) -> None:
    key = record.get("key")
    if not isinstance(key, str) or not key:
        findings.append(
            _finding(
                "checkpoint/entry",
                f"line {number}: task record has no task key",
                file=file,
            )
        )
        return
    status = record.get("status")
    if status not in ("ok", "failed"):
        findings.append(
            _finding(
                "checkpoint/entry",
                f"task {key!r} has unknown status {status!r}",
                file=file,
                obj=key,
            )
        )
        return
    worker = record.get("worker")
    if worker is not None and (
        isinstance(worker, bool)
        or not isinstance(worker, int)
        or worker < 0
    ):
        findings.append(
            _finding(
                "checkpoint/entry",
                f"task {key!r} has malformed worker id {worker!r}",
                file=file,
                obj=key,
            )
        )
    if status == "failed":
        if not isinstance(record.get("error"), str):
            findings.append(
                _finding(
                    "checkpoint/entry",
                    f"failed task {key!r} records no error class",
                    file=file,
                    obj=key,
                )
            )
        return
    if key in completed_keys:
        findings.append(
            _finding(
                "checkpoint/duplicate",
                f"task {key!r} completed more than once "
                "(replay is last-wins)",
                severity=Severity.WARNING,
                file=file,
                obj=key,
            )
        )
    completed_keys.append(key)
    artifact = record.get("artifact")
    if artifact is None:
        if not isinstance(record.get("payload"), dict):
            findings.append(
                _finding(
                    "checkpoint/entry",
                    f"completed task {key!r} has neither an artifact "
                    "nor an inline payload",
                    file=file,
                    obj=key,
                )
            )
        return
    artifact_path = directory / str(artifact)
    if not artifact_path.is_file():
        findings.append(
            _finding(
                "checkpoint/artifact",
                f"task {key!r} references missing artifact "
                f"{artifact}",
                file=file,
                obj=key,
            )
        )
        return
    try:
        payload = json.loads(artifact_path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as error:
        findings.append(
            _finding(
                "checkpoint/artifact",
                f"task {key!r} artifact {artifact} does not parse: "
                f"{error}",
                file=file,
                obj=key,
            )
        )
        return
    if not isinstance(payload, dict):
        findings.append(
            _finding(
                "checkpoint/artifact",
                f"task {key!r} artifact {artifact} is not a JSON "
                "object",
                file=file,
                obj=key,
            )
        )


def audit_checkpoint(path: str | Path) -> list[Finding]:
    """Audit a checkpoint journal (or the directory holding one).

    Never raises on bad *content* — every problem is a finding, so one
    pass reports everything wrong with a damaged checkpoint.
    """
    target = Path(path)
    if target.is_dir():
        journal_path = target / JOURNAL_NAME
    else:
        journal_path = target
    file = str(journal_path)
    if not journal_path.is_file():
        return [
            _finding(
                "checkpoint/missing",
                f"no checkpoint journal at {journal_path}",
                file=file,
            )
        ]
    from repro.obs.sinks import read_jsonl

    try:
        lines = read_jsonl(journal_path).last_line_torn()
    except OSError as error:
        return [
            _finding(
                "checkpoint/parse",
                f"cannot read journal: {error}",
                file=file,
            )
        ]
    findings: list[Finding] = []
    if lines.torn:
        findings.append(
            _finding(
                "checkpoint/truncated",
                "journal ends in a torn line (killed mid-append); "
                "replay drops it",
                severity=Severity.WARNING,
                file=file,
            )
        )
    for number, problem in lines.defects:
        findings.append(
            _finding(
                "checkpoint/parse",
                f"line {number} is {problem}",
                file=file,
            )
        )
    header: dict[str, Any] | None = None
    completed_keys: list[str] = []
    task_findings: list[Finding] = []
    for number, record in lines.records:
        if record.get("type") == "batch":
            if header is None:
                header = record
        elif record.get("type") == "task":
            _audit_task_record(
                record,
                number,
                journal_path.parent,
                file,
                task_findings,
                completed_keys,
            )
    declared = _audit_header(header, file, findings)
    findings.extend(task_findings)
    if declared is not None and len(set(completed_keys)) > declared:
        findings.append(
            _finding(
                "checkpoint/task-count",
                f"{len(set(completed_keys))} distinct tasks completed "
                f"but the batch declared only {declared}",
                file=file,
            )
        )
    return findings
