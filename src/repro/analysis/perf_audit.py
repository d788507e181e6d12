"""Auditing benchmark history ledgers (the ``perf/*`` rule family).

The ledger (:mod:`repro.obs.perf.history`) is append-only JSONL that
accumulates across machines and months, so unlike a single run file it
*will* eventually contain lines written by older code, copied between
hosts, or truncated mid-append.  This auditor reads it leniently —
every defective line becomes a finding, parsing continues — and cross-
checks what regression gating depends on:

``perf/history-parse``
    A ledger line is not JSON, not an object, or carries the wrong
    format/version stamp; or a record lacks a bench id / numeric
    metrics.  Error severity: gating cannot trust such a ledger.  A
    torn tail (a crash mid-append, which the strict reader drops and
    the next append cuts off) and a ledger with no valid records are
    warnings.
``perf/host-mismatch``
    Consecutive records of the same bench were taken on different host
    fingerprints (cpu count / platform / python).  Warning severity:
    the numbers are real but not comparable, which is precisely the
    silent way benchmark trajectories lie.
``perf/baseline-missing``
    Only checked when a baselines path is given: the committed
    baselines file is absent or unparseable (error — nothing gates
    anything), or a bench recorded in the ledger has no baseline entry
    (warning — an unguarded bench can regress invisibly).

Routing: ``repro-layout check`` recognises ledgers among ``.jsonl``
artifacts by name (``HISTORY.jsonl``) or by their format stamp
(:func:`repro.obs.sinks.sniff_format`);
``repro-layout perf check`` calls this directly with the baselines
path and layers tolerance gating on top.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.analysis.findings import Finding, Location, Severity
from repro.errors import AnalysisError, PerfError
from repro.obs.perf.baseline import load_baselines
from repro.obs.perf.history import HISTORY_FORMAT, HISTORY_VERSION

#: The rule ids this auditor can report.  ``tools/check_docs.py``
#: parses this tuple and requires every id to be documented in both
#: ``docs/api.md`` and ``docs/architecture.md``.
PERF_RULES = (
    "perf/history-parse",
    "perf/baseline-missing",
    "perf/host-mismatch",
)


def _finding(
    rule: str,
    message: str,
    severity: Severity = Severity.ERROR,
    file: str | None = None,
    line: int | None = None,
    obj: str | None = None,
) -> Finding:
    return Finding(
        rule=rule,
        severity=severity,
        message=message,
        location=Location(file=file, line=line, obj=obj),
    )


def _parse_ledger(
    path: Path, findings: list[Finding]
) -> list[dict[str, Any]]:
    """Lenient line-by-line parse; defects become findings."""
    from repro.obs.sinks import read_jsonl

    file = str(path)
    try:
        lines = read_jsonl(path)
    except OSError as error:
        raise AnalysisError(f"cannot read {path}: {error}") from error
    if lines.torn:
        findings.append(
            _finding(
                "perf/history-parse",
                "ledger ends in a torn line (killed mid-append); "
                "reads drop it",
                severity=Severity.WARNING,
                file=file,
            )
        )

    def defect(lineno: int, problem: str, obj: str | None = None) -> None:
        findings.append(
            _finding(
                "perf/history-parse", problem, file=file, line=lineno, obj=obj
            )
        )

    for lineno, problem in lines.defects:
        defect(lineno, f"unparseable ledger line: {problem}")
    records: list[dict[str, Any]] = []
    for lineno, record in lines.records:
        bench = record.get("bench")
        metrics = record.get("metrics")
        if record.get("format") != HISTORY_FORMAT:
            defect(
                lineno,
                f"unexpected format {record.get('format')!r} "
                f"(want {HISTORY_FORMAT!r})",
            )
        elif record.get("version") != HISTORY_VERSION:
            defect(
                lineno,
                f"unsupported ledger version {record.get('version')!r}",
            )
        elif not isinstance(bench, str) or not bench:
            defect(lineno, "record has no bench id")
        elif not metrics or not isinstance(metrics, dict) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in metrics.values()
        ):
            defect(
                lineno,
                f"record for bench {bench!r} has no flat numeric "
                "metrics map",
                obj=bench,
            )
        else:
            record["_lineno"] = lineno
            records.append(record)
    return records


def _audit_hosts(
    records: list[dict[str, Any]],
    file: str,
    findings: list[Finding],
) -> None:
    """Consecutive same-bench records must share a host fingerprint."""
    previous: dict[str, dict[str, Any]] = {}
    for record in records:
        bench = record["bench"]
        host = record.get("host") or {}
        prior = previous.get(bench)
        if prior is not None and prior.get("host") != host:
            findings.append(
                _finding(
                    "perf/host-mismatch",
                    f"bench {bench!r} recorded on a different host "
                    f"than its previous record (line "
                    f"{prior['_lineno']}): {prior.get('host')!r} vs "
                    f"{host!r}; timings are not comparable across "
                    "hosts",
                    severity=Severity.WARNING,
                    file=file,
                    line=record["_lineno"],
                    obj=bench,
                )
            )
        previous[bench] = record
    if not records:
        findings.append(
            _finding(
                "perf/history-parse",
                "ledger contains no valid records",
                severity=Severity.WARNING,
                file=file,
            )
        )


def _audit_baselines(
    records: list[dict[str, Any]],
    baselines_path: Path,
    findings: list[Finding],
) -> None:
    file = str(baselines_path)
    if not baselines_path.is_file():
        findings.append(
            _finding(
                "perf/baseline-missing",
                f"no committed baselines file at {baselines_path}; "
                "nothing gates the recorded benches",
                file=file,
            )
        )
        return
    try:
        baselines = load_baselines(baselines_path)
    except PerfError as error:
        findings.append(
            _finding(
                "perf/baseline-missing",
                f"baselines file is unusable: {error}",
                file=file,
            )
        )
        return
    gated = set(baselines.get("benches") or {})
    for bench in sorted({record["bench"] for record in records}):
        if bench not in gated:
            findings.append(
                _finding(
                    "perf/baseline-missing",
                    f"bench {bench!r} is recorded in the ledger but "
                    "has no baseline entry; it can regress unnoticed",
                    severity=Severity.WARNING,
                    file=file,
                    obj=bench,
                )
            )


def audit_perf_history(
    path: str | Path, baselines: str | Path | None = None
) -> list[Finding]:
    """Audit a history ledger; optionally cross-check its baselines.

    Returns findings for bad content; raises
    :class:`~repro.errors.AnalysisError` only when the ledger cannot
    be read at all (missing file, IO error) — the same contract as the
    other artifact auditors.
    """
    target = Path(path)
    if not target.is_file():
        raise AnalysisError(f"no history ledger at {target}")
    findings: list[Finding] = []
    records = _parse_ledger(target, findings)
    _audit_hosts(records, str(target), findings)
    if baselines is not None:
        _audit_baselines(records, Path(baselines), findings)
    for record in records:
        record.pop("_lineno", None)
    return findings
