"""The benchmark history ledger.

``BENCH_*.json`` files are isolated snapshots: each bench session
overwrites the last, so the repository has no memory of how fast it
used to be.  The ledger fixes that with the cheapest durable structure
available — an append-only JSONL file, ``benchmarks/results/
HISTORY.jsonl``, one self-describing record per bench result:

.. code-block:: json

    {"format": "repro/perf-history", "version": 1,
     "bench": "table1:gcc",
     "metrics": {"miss_rate": 0.031, "wall_s": 1.82},
     "git": "6fc7b86", "unix_time": 1754600000.0,
     "host": {"cpu_count": 8, "platform": "Linux-...", "python": "3.12.3"}}

Records carry a *host fingerprint* because benchmark numbers are only
comparable on comparable machines — the PR-4 "this box has one usable
core" caveat becomes machine-readable, and
:func:`repro.obs.perf.baseline.check_records` refuses silently mixing
hosts (the ``perf/host-mismatch`` audit rule).

The ledger append deliberately does *not* use the atomic write-replace
idiom from :mod:`repro.io`: an append-only log must not rewrite its
past (the same reasoning as the runner journal), and
:mod:`repro.obs.perf` sits in the ``obs`` layer which may not import
:mod:`repro.io` anyway.  The module is allowlisted in
``repro.analysis.concsafety.RAW_WRITE_ALLOWLIST`` with that
justification.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.chaos.sites import fire as _chaos_fire
from repro.errors import PerfError
from repro.obs.clock import wall_time
from repro.obs.session import git_revision

HISTORY_FORMAT = "repro/perf-history"
HISTORY_VERSION = 1
#: Canonical ledger file name under ``benchmarks/results/``.
HISTORY_NAME = "HISTORY.jsonl"


def host_fingerprint() -> dict[str, Any]:
    """The minimal host identity that makes bench numbers comparable.

    CPU count (parallel benches scale with it), platform string
    (kernel/arch) and the Python version (interpreter performance
    moves several percent per minor release).
    """
    return {
        "cpu_count": os.cpu_count() or 1,
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def flatten_metrics(
    metrics: Mapping[str, Any], prefix: str = ""
) -> dict[str, float]:
    """Flatten a (possibly nested) metric mapping to ``name -> float``.

    Nested mappings join keys with ``.``; booleans and non-numeric
    leaves are dropped.  This is what makes arbitrary bench result
    dicts ledger-able without a schema per bench.
    """
    flat: dict[str, float] = {}
    for key, value in metrics.items():
        name = f"{prefix}{key}"
        if isinstance(value, Mapping):
            flat.update(flatten_metrics(value, prefix=f"{name}."))
        elif isinstance(value, bool):
            continue
        elif isinstance(value, (int, float)):
            flat[name] = float(value)
    return flat


def bench_record(
    bench: str,
    metrics: Mapping[str, Any],
    *,
    root: Path | None = None,
) -> dict[str, Any]:
    """Build one ledger record for *bench* with *metrics*.

    Metrics are flattened (:func:`flatten_metrics`); the git revision
    and host fingerprint are captured here so every call site stays a
    one-liner.
    """
    if not bench:
        raise PerfError("bench id must be a non-empty string")
    flat = flatten_metrics(metrics)
    if not flat:
        raise PerfError(
            f"bench {bench!r} produced no numeric metrics to record"
        )
    return {
        "format": HISTORY_FORMAT,
        "version": HISTORY_VERSION,
        "bench": bench,
        "metrics": flat,
        "git": git_revision(root),
        "unix_time": wall_time(),
        "host": host_fingerprint(),
    }


def append_record(path: Path, record: Mapping[str, Any]) -> None:
    """Append one record to the ledger at *path*, creating it if new.

    One ``json.dumps(sort_keys=True)`` line per record, flushed before
    close; the file is never rewritten (append-only by contract), but
    a torn tail left by an earlier crash is cut off first
    (:func:`repro.obs.sinks.cut_torn_tail`), so the new record starts
    on a line of its own.
    """
    if record.get("format") != HISTORY_FORMAT:
        raise PerfError(
            f"refusing to append non-ledger record to {path}: "
            f"format={record.get('format')!r}"
        )
    from repro.obs.sinks import cut_torn_tail

    line = json.dumps(record, sort_keys=True) + "\n"
    try:
        _chaos_fire("perf.history", "before")
        path.parent.mkdir(parents=True, exist_ok=True)
        cut_torn_tail(path)
        with open(path, "a", encoding="utf-8") as handle:
            _chaos_fire(
                "perf.history", "data", handle=handle, payload=line
            )
            handle.write(line)
            handle.flush()
        _chaos_fire("perf.history", "after")
    except OSError as error:
        raise PerfError(
            f"cannot append to history ledger {path}: {error}"
        ) from error


def read_history(path: Path) -> list[dict[str, Any]]:
    """Parse the ledger at *path* into its record list, strictly.

    Raises :class:`~repro.errors.PerfError` on a missing file, a line
    that is not JSON, a record that is not an object, or a record with
    the wrong format/version stamp — a ledger you cannot trust line by
    line is not a ledger.  A torn tail (a crash mid-append) is dropped,
    as the journal replay drops one.  (The ``perf/history-parse`` audit
    rule reports the same defects as findings instead of raising.)
    """
    from repro.obs.sinks import read_jsonl

    if not path.is_file():
        raise PerfError(f"history ledger not found: {path}")
    try:
        lines = read_jsonl(path)
    except OSError as error:
        raise PerfError(
            f"cannot read history ledger {path}: {error}"
        ) from error
    if lines.defects:
        lineno, problem = lines.defects[0]
        raise PerfError(
            f"{path}:{lineno}: unparseable ledger line: {problem}"
        )
    for lineno, record in lines.records:
        if record.get("format") != HISTORY_FORMAT:
            raise PerfError(
                f"{path}:{lineno}: unexpected format "
                f"{record.get('format')!r} (want {HISTORY_FORMAT!r})"
            )
        if record.get("version") != HISTORY_VERSION:
            raise PerfError(
                f"{path}:{lineno}: unsupported ledger version "
                f"{record.get('version')!r}"
            )
    return [record for _, record in lines.records]


def latest_records(
    records: Iterable[Mapping[str, Any]],
) -> dict[str, dict[str, Any]]:
    """The most recent record per bench id, in ledger order.

    "Most recent" is file order, not ``unix_time`` order — the ledger
    is append-only, so file order *is* time order, and it stays
    correct even on hosts with coarse clocks.
    """
    latest: dict[str, dict[str, Any]] = {}
    for record in records:
        bench = record.get("bench")
        if isinstance(bench, str) and bench:
            latest[bench] = dict(record)
    return latest
