"""Post-crash scene auditing: the ``chaos/*`` finding family.

After a simulated crash (see :mod:`repro.chaos.campaign`), the
on-disk tree must still satisfy the recovery contract documented in
``docs/crash-consistency.md``.  :func:`audit_crash_scene` checks the
*passive* half of that contract — everything that must hold before
any recovery action runs:

* the checkpoint journal still parses (a torn trailing line is fine;
  corruption elsewhere is ``chaos/journal-parse``);
* the store index, when present, audits without error-severity
  findings (``chaos/store-integrity`` — dangling blobs and stranded
  temp files are warnings by design, a broken index is not);
* the run file (JSONL events + manifest) stays line-parseable except
  for a torn tail (``chaos/manifest-parse``).

The campaign driver adds the *active* half — resume byte-equality
(``chaos/resume-failed`` / ``chaos/resume-mismatch``), the post-gc
orphan sweep (``chaos/temp-orphan``) and escape-hatch errors
(``chaos/unexpected-error``) — reusing the same
:class:`~repro.analysis.findings.Finding` shape, so chaos results
flow through the ordinary findings formatters and SARIF export.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.findings import Finding, Location, Severity
from repro.analysis.store_audit import audit_store
from repro.errors import RunnerError
from repro.runner.journal import JOURNAL_NAME, load_journal

#: Every rule id the chaos campaign and crash auditor can report.
CHAOS_RULES = (
    "chaos/journal-parse",
    "chaos/manifest-parse",
    "chaos/resume-failed",
    "chaos/resume-mismatch",
    "chaos/store-integrity",
    "chaos/temp-orphan",
    "chaos/unexpected-error",
)


def find_stale_tmp(root: str | Path) -> list[Path]:
    """Orphan ``*.tmp`` files under *root*, sorted.

    Atomic writers name their temp files ``.<target>.<rand>.tmp``;
    anything matching ``*.tmp`` after recovery (resume sweep + gc) is
    a leak.
    """
    directory = Path(root)
    if not directory.is_dir():
        return []
    return sorted(
        path for path in directory.rglob("*.tmp") if path.is_file()
    )


def _audit_journal(checkpoint: Path) -> list[Finding]:
    journal = checkpoint / JOURNAL_NAME
    if not journal.exists():
        return []
    try:
        load_journal(journal)
    except RunnerError as error:
        return [
            Finding(
                rule="chaos/journal-parse",
                severity=Severity.ERROR,
                message=(
                    "checkpoint journal unreadable after crash: "
                    f"{error}"
                ),
                location=Location(file=str(journal)),
            )
        ]
    return []


def _audit_store_scene(store_root: Path) -> list[Finding]:
    index = store_root / "index.json"
    if not index.is_file():
        # A crash before the first index commit is a legitimate state:
        # at most a dangling blob exists, which the next run ignores.
        return []
    findings = []
    for found in audit_store(store_root):
        if found.severity is not Severity.ERROR:
            continue
        findings.append(
            Finding(
                rule="chaos/store-integrity",
                severity=Severity.ERROR,
                message=(
                    f"store audit error after crash: [{found.rule}] "
                    f"{found.message}"
                ),
                location=found.location,
            )
        )
    return findings


def _audit_run_file(run_file: Path) -> list[Finding]:
    from repro.obs.sinks import read_jsonl

    if not run_file.exists():
        return []
    try:
        # A torn write may or may not get its newline out; everything
        # before it must still parse as one JSON object per line.
        lines = read_jsonl(run_file).last_line_torn()
    except OSError as error:
        return [
            Finding(
                rule="chaos/manifest-parse",
                severity=Severity.ERROR,
                message=f"run file unreadable after crash: {error}",
                location=Location(file=str(run_file)),
            )
        ]
    return [
        Finding(
            rule="chaos/manifest-parse",
            severity=Severity.ERROR,
            message=(
                f"run file line {number} is {problem} after crash "
                "(corruption before the torn tail)"
            ),
            location=Location(file=str(run_file), line=number),
        )
        for number, problem in lines.defects
    ]


def audit_crash_scene(
    checkpoint: str | Path | None = None,
    store: str | Path | None = None,
    run_file: str | Path | None = None,
) -> list[Finding]:
    """Audit a crash scene's durable surfaces; see module docstring.

    Every argument is optional — pass whichever surfaces the crashed
    run actually owned.  Returns error findings only; acceptable
    crash residue (torn tails, dangling blobs, stranded temp files
    awaiting gc) is by-design and reported by the *recovery* checks
    instead.
    """
    findings: list[Finding] = []
    if checkpoint is not None:
        findings.extend(_audit_journal(Path(checkpoint)))
    if store is not None:
        findings.extend(_audit_store_scene(Path(store)))
    if run_file is not None:
        findings.extend(_audit_run_file(Path(run_file)))
    return findings
