"""The perf lab: comparing observed runs instead of eyeballing them.

:mod:`repro.obs` (PR 2) made single runs *visible* — spans, metrics,
an end-of-run manifest.  This package makes runs *comparable*, which
is what a measurement pipeline is actually for:

* :mod:`repro.obs.perf.diff` — structural diffing of two run
  manifests: the phase-timing trees are aligned node by node and
  annotated with wall-time deltas and ratios, metric snapshots are
  diffed instrument-wise, and config-echo drift (the classic "you
  benchmarked two different configurations" mistake) is surfaced
  first.  Rendered as deterministic text or JSON.
* :mod:`repro.obs.perf.history` — the benchmark history ledger:
  every bench result appends one record (bench id, flat numeric
  metrics, git describe, host fingerprint) to an append-only JSONL
  file, ``benchmarks/results/HISTORY.jsonl``, turning isolated
  ``BENCH_*.json`` snapshots into a trajectory.
* :mod:`repro.obs.perf.baseline` — regression gating: compare the
  latest ledger record per bench against a committed
  ``benchmarks/baselines.json`` with per-metric direction
  (higher/lower-is-better) and noise tolerance; drives the
  ``repro-layout perf check`` exit code.

Where a run spent its time is not this package's job: the obs spans
are the one stage-timing source, and :func:`repro.obs.self_times`
folds them into the per-stage table ``repro-layout report`` prints.

CLI frontend: ``repro-layout perf {record,diff,check}``.  The
``perf/*`` audit rules in :mod:`repro.analysis.perf_audit` verify
ledgers offline.
"""

from repro.obs.perf.baseline import (
    BASELINES_FORMAT,
    BASELINES_VERSION,
    MetricCheck,
    check_records,
    format_checks,
    load_baselines,
)
from repro.obs.perf.diff import (
    diff_manifests,
    diff_metric_maps,
    format_diff,
    format_record_diff,
)
from repro.obs.perf.history import (
    HISTORY_FORMAT,
    HISTORY_NAME,
    HISTORY_VERSION,
    append_record,
    bench_record,
    flatten_metrics,
    host_fingerprint,
    is_history_file,
    latest_records,
    read_history,
)

__all__ = [
    "BASELINES_FORMAT",
    "BASELINES_VERSION",
    "HISTORY_FORMAT",
    "HISTORY_NAME",
    "HISTORY_VERSION",
    "MetricCheck",
    "append_record",
    "bench_record",
    "check_records",
    "diff_manifests",
    "diff_metric_maps",
    "flatten_metrics",
    "format_checks",
    "format_diff",
    "format_record_diff",
    "host_fingerprint",
    "is_history_file",
    "latest_records",
    "load_baselines",
    "read_history",
]
