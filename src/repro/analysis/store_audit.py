"""Auditing artifact-store directories (the ``cache/*`` rule family).

A store directory (:mod:`repro.store`) promises three invariants that
are cheap to verify offline and expensive to discover the hard way:

* the JSON index parses and every entry is well-formed
  (``cache/index-parse``, ``cache/index-entry``);
* every indexed blob exists and its bytes hash to the recorded
  content sha256 (``cache/missing-blob``, ``cache/digest-mismatch``)
  — a digest mismatch is exactly the tampered/truncated-blob case the
  store itself treats as a miss and rebuilds;
* no blob file sits in ``objects/`` without an index entry
  (``cache/orphan-blob``, a warning: orphans waste space but cannot
  corrupt results; ``cache gc`` removes them).  Quarantined blobs
  (``objects/quarantine/``) and stranded ``*.tmp`` files from
  interrupted atomic writes are likewise warnings
  (``cache/quarantined``, ``cache/tmp-file``) — both are expected
  crash residue that ``cache gc`` reclaims, never silent corruption.

Routed through ``repro-layout check`` (store directories directly, or
run directories containing one) and ``repro-layout cache verify``.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.analysis.findings import Finding, Location, Severity
from repro.store import ENTRY_FIELDS, INDEX_NAME, read_index
from repro.store.store import QUARANTINE_DIR


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


def audit_store(path: str | Path) -> list[Finding]:
    """Audit one store directory; returns sorted ``cache/*`` findings."""
    from repro.errors import StoreError

    root = Path(path)
    index = root / INDEX_NAME
    findings: list[Finding] = []
    if not index.is_file():
        findings.append(
            _finding(
                "cache/index-parse",
                f"{root} has no {INDEX_NAME}; not an artifact store",
                file=str(root),
            )
        )
        return findings

    try:
        entries = read_index(index)
    except StoreError as error:
        findings.append(
            _finding("cache/index-parse", str(error), file=str(index))
        )
        entries = {}
    referenced: set[str] = set()
    for digest in sorted(entries):
        entry = entries[digest]
        if not isinstance(entry, dict) or any(
            field not in entry for field in ENTRY_FIELDS
        ):
            findings.append(
                _finding(
                    "cache/index-entry",
                    f"entry {digest} is malformed (want fields "
                    f"{', '.join(ENTRY_FIELDS)})",
                    file=str(index),
                    obj=digest,
                )
            )
            continue
        relative = str(entry["file"])
        referenced.add(relative)
        blob = root / relative
        if not blob.is_file():
            findings.append(
                _finding(
                    "cache/missing-blob",
                    f"entry {digest} ({entry['kind']}) points at "
                    f"missing blob {relative}",
                    file=str(index),
                    obj=digest,
                )
            )
            continue
        try:
            data = blob.read_bytes()
        except OSError as error:
            findings.append(
                _finding(
                    "cache/missing-blob",
                    f"blob {relative} is unreadable: {error}",
                    file=str(blob),
                    obj=digest,
                )
            )
            continue
        actual = hashlib.sha256(data).hexdigest()
        if actual != entry["sha256"]:
            findings.append(
                _finding(
                    "cache/digest-mismatch",
                    f"blob {relative} hashes to {actual[:12]}…, index "
                    f"records {str(entry['sha256'])[:12]}… — the blob "
                    "was tampered with or truncated (the store will "
                    "treat it as a miss and rebuild)",
                    file=str(blob),
                    obj=digest,
                )
            )
        elif len(data) != entry["bytes"]:
            findings.append(
                _finding(
                    "cache/index-entry",
                    f"entry {digest} records {entry['bytes']} bytes "
                    f"but blob {relative} holds {len(data)}",
                    file=str(index),
                    obj=digest,
                )
            )

    objects = root / "objects"
    if objects.is_dir():
        quarantine = root / QUARANTINE_DIR
        quarantined = 0
        for blob in sorted(objects.glob("*/*")):
            if blob.parent == quarantine:
                quarantined += 1
                continue
            relative = blob.relative_to(root).as_posix()
            if relative not in referenced:
                findings.append(
                    _finding(
                        "cache/orphan-blob",
                        f"blob {relative} has no index entry "
                        "(run `repro-layout cache gc` to remove it)",
                        severity=Severity.WARNING,
                        file=str(blob),
                    )
                )
        if quarantined:
            findings.append(
                _finding(
                    "cache/quarantined",
                    f"{quarantined} blob(s) held in {QUARANTINE_DIR} "
                    "after repeated content-hash failures (inspect, "
                    "then `repro-layout cache gc` to purge)",
                    severity=Severity.WARNING,
                    file=str(quarantine),
                )
            )
    for stale in sorted(root.rglob("*.tmp")):
        findings.append(
            _finding(
                "cache/tmp-file",
                f"stranded temp file "
                f"{stale.relative_to(root).as_posix()} from an "
                "interrupted write (`repro-layout cache gc` sweeps "
                "it)",
                severity=Severity.WARNING,
                file=str(stale),
            )
        )
    return findings
