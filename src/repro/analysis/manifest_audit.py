"""Auditing JSONL run files and their end-of-run manifests.

A run file (``--metrics-out``) must end in a single manifest object
(format ``repro/manifest``) whose timing tree and metric snapshot obey
the observability layer's invariants: durations are non-negative and
children fit inside their parent, counters never go negative,
histogram bucket counts are consistent, the cache-simulation
counters reconcile (``misses + hits == accesses``).  Violations are
reported as :class:`~repro.analysis.findings.Finding` objects — the
same pipeline as the artifact auditors — so ``repro-layout check``
can audit run files alongside layouts and graphs.

:func:`audit_run_path` accepts a run *directory* too, and reports a
``manifest/missing`` finding (instead of crashing) when no manifest
can be found — the structured answer to "this run left no record".
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Any, Mapping

from repro.analysis.findings import Finding, Location, Severity
from repro.errors import AnalysisError, ManifestMissingError
from repro.obs.sinks import (
    MANIFEST_FORMAT,
    MANIFEST_VERSION,
    load_run_manifest,
    sniff_format,
)

#: Relative slack when comparing summed child durations to the parent:
#: the parent's own bookkeeping takes time, children cannot exceed it
#: by more than round-off.
_TIMING_RTOL = 0.05
#: Absolute slack (seconds) so microsecond-scale spans never trip the
#: relative check.
_TIMING_ATOL = 1e-4


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


def _audit_timing_node(
    node: Mapping[str, Any],
    file: str | None,
    findings: list[Finding],
    path: str,
) -> None:
    name = node.get("name", "?")
    label = f"{path}/{name}" if path else str(name)
    duration = node.get("duration")
    if not isinstance(duration, (int, float)) or math.isnan(duration):
        findings.append(
            _finding(
                "manifest/timing-tree",
                f"span {label!r} has no numeric duration",
                file=file,
                obj=label,
            )
        )
        duration = 0.0
    elif duration < 0:
        findings.append(
            _finding(
                "manifest/timing-tree",
                f"span {label!r} has negative duration {duration}",
                file=file,
                obj=label,
            )
        )
    children = node.get("children") or []
    child_total = sum(
        child.get("duration") or 0.0
        for child in children
        if isinstance(child, Mapping)
    )
    limit = duration * (1 + _TIMING_RTOL) + _TIMING_ATOL
    if child_total > limit:
        findings.append(
            _finding(
                "manifest/timing-tree",
                f"children of span {label!r} sum to {child_total:.6f}s, "
                f"exceeding the parent's {duration:.6f}s",
                file=file,
                obj=label,
            )
        )
    for child in children:
        if isinstance(child, Mapping):
            _audit_timing_node(child, file, findings, label)


def _audit_metrics(
    metrics: Mapping[str, Any],
    file: str | None,
    findings: list[Finding],
) -> None:
    for name in sorted(metrics):
        entry = metrics[name]
        if not isinstance(entry, Mapping):
            findings.append(
                _finding(
                    "manifest/histogram",
                    f"metric {name!r} is not an object",
                    file=file,
                    obj=name,
                )
            )
            continue
        kind = entry.get("kind")
        if kind == "counter":
            value = entry.get("value")
            if not isinstance(value, (int, float)) or value < 0:
                findings.append(
                    _finding(
                        "manifest/counter-negative",
                        f"counter {name!r} has non-monotonic value "
                        f"{value!r}",
                        file=file,
                        obj=name,
                    )
                )
        elif kind == "histogram":
            edges = entry.get("edges") or []
            counts = entry.get("counts")
            if not isinstance(counts, list) or any(
                not isinstance(c, int) or c < 0 for c in counts
            ):
                findings.append(
                    _finding(
                        "manifest/histogram",
                        f"histogram {name!r} has invalid bucket counts "
                        f"{counts!r}",
                        file=file,
                        obj=name,
                    )
                )
                continue
            if len(counts) != len(edges) + 1:
                findings.append(
                    _finding(
                        "manifest/histogram",
                        f"histogram {name!r} has {len(counts)} buckets "
                        f"for {len(edges)} edges (want edges + 1)",
                        file=file,
                        obj=name,
                    )
                )
            if entry.get("count") != sum(counts):
                findings.append(
                    _finding(
                        "manifest/histogram",
                        f"histogram {name!r} count {entry.get('count')!r} "
                        f"!= sum of buckets {sum(counts)}",
                        file=file,
                        obj=name,
                    )
                )


def _counter_value(
    metrics: Mapping[str, Any], name: str
) -> int | float | None:
    entry = metrics.get(name)
    if not isinstance(entry, Mapping) or entry.get("kind") != "counter":
        return None
    value = entry.get("value")
    return value if isinstance(value, (int, float)) else None


def _audit_miss_reconciliation(
    metrics: Mapping[str, Any],
    file: str | None,
    findings: list[Finding],
) -> None:
    accesses = _counter_value(metrics, "cache.sim.accesses")
    misses = _counter_value(metrics, "cache.sim.misses")
    hits = _counter_value(metrics, "cache.sim.hits")
    if accesses is None and misses is None and hits is None:
        return
    if accesses is None or misses is None or hits is None:
        present = [
            name
            for name, value in (
                ("accesses", accesses),
                ("misses", misses),
                ("hits", hits),
            )
            if value is not None
        ]
        findings.append(
            _finding(
                "manifest/miss-reconcile",
                "partial cache.sim counters: only "
                f"{', '.join(present)} present",
                file=file,
                obj="cache.sim",
            )
        )
        return
    if misses > accesses:
        findings.append(
            _finding(
                "manifest/miss-reconcile",
                f"cache.sim.misses ({misses}) exceeds "
                f"cache.sim.accesses ({accesses})",
                file=file,
                obj="cache.sim",
            )
        )
    if misses + hits != accesses:
        findings.append(
            _finding(
                "manifest/miss-reconcile",
                f"cache.sim.misses ({misses}) + cache.sim.hits ({hits}) "
                f"!= cache.sim.accesses ({accesses})",
                file=file,
                obj="cache.sim",
            )
        )


def audit_manifest(
    data: Mapping[str, Any], file: str | None = None
) -> list[Finding]:
    """Audit one parsed run manifest; returns findings, never raises
    on bad *content* (only on non-manifest input)."""
    if not isinstance(data, Mapping):
        raise AnalysisError("manifest audit needs a JSON object")
    if data.get("format") != MANIFEST_FORMAT:
        raise AnalysisError(
            f"not a run manifest (format {data.get('format')!r})"
        )
    findings: list[Finding] = []
    version = data.get("version")
    if version != MANIFEST_VERSION:
        findings.append(
            _finding(
                "manifest/version",
                f"unsupported manifest version {version!r} "
                f"(expected {MANIFEST_VERSION})",
                file=file,
            )
        )
    timings = data.get("timings") or []
    for root in timings:
        if isinstance(root, Mapping):
            _audit_timing_node(root, file, findings, "")
    metrics = data.get("metrics") or {}
    if isinstance(metrics, Mapping):
        _audit_metrics(metrics, file, findings)
        _audit_miss_reconciliation(metrics, file, findings)
    return findings


def audit_run_path(path: str | Path) -> list[Finding]:
    """Audit a run file, or every ``*.jsonl`` run file in a directory.

    A missing or manifest-less run is a ``manifest/missing`` finding,
    not an exception: a run directory with no record is exactly the
    situation ``check`` exists to report.  A torn tail is dropped, so a
    run killed mid-emit is manifest-less too.

    Other record files route by their canonical filename or their
    :func:`~repro.obs.sinks.sniff_format` stamp: checkpoint journals
    (``checkpoint.jsonl`` / ``repro/checkpoint``) to
    :func:`~repro.analysis.checkpoint_audit.audit_checkpoint`, so
    ``repro-layout check CKPT/`` audits checkpoint directories with no
    extra flags; benchmark history ledgers (``HISTORY.jsonl`` /
    ``repro/perf-history``) to
    :func:`~repro.analysis.perf_audit.audit_perf_history` (the
    ``perf/*`` rules).  Artifact-store directories — the target
    itself, or any immediate subdirectory whose index is stamped
    ``repro/store-index`` — route to
    :func:`~repro.analysis.store_audit.audit_store`, so a run directory
    with an embedded ``--cache`` store gets the ``cache/*`` rules
    applied in the same ``check`` invocation.
    """
    from repro.analysis.checkpoint_audit import audit_checkpoint
    from repro.analysis.perf_audit import audit_perf_history
    from repro.analysis.store_audit import audit_store
    from repro.obs.perf.history import HISTORY_FORMAT, HISTORY_NAME
    from repro.runner.journal import CHECKPOINT_FORMAT, JOURNAL_NAME
    from repro.store import INDEX_NAME, STORE_FORMAT

    def is_store(directory: Path) -> bool:
        return sniff_format(directory / INDEX_NAME) == STORE_FORMAT

    target = Path(path)
    if target.is_dir():
        if is_store(target):
            return audit_store(target)
        findings: list[Finding] = []
        store_children = [
            child
            for child in sorted(target.iterdir())
            if child.is_dir() and is_store(child)
        ]
        for child in store_children:
            findings.extend(audit_store(child))
        runs = sorted(target.glob("*.jsonl"))
        if not runs and not store_children:
            return [
                _finding(
                    "manifest/missing",
                    f"run directory {target} contains no .jsonl run "
                    "files; no manifest was written",
                    file=str(target),
                )
            ]
        for run in runs:
            findings.extend(audit_run_path(run))
        return findings
    if not target.exists():
        return [
            _finding(
                "manifest/missing",
                f"run file {target} does not exist",
                file=str(target),
            )
        ]
    stamp = sniff_format(target)
    if target.name == JOURNAL_NAME or stamp == CHECKPOINT_FORMAT:
        return audit_checkpoint(target)
    if target.name == HISTORY_NAME or stamp == HISTORY_FORMAT:
        return audit_perf_history(target)
    try:
        manifest = load_run_manifest(target)
    except ManifestMissingError:
        return [
            _finding(
                "manifest/missing",
                f"{target} has no manifest line; the run did not "
                "finish (or was written with --trace-out)",
                file=str(target),
            )
        ]
    return audit_manifest(manifest, file=str(target))
