"""Pipeline observability: spans, metrics, JSONL sinks, run manifests.

The GBSC pipeline (trace generation → TRG construction → greedy merge →
linearization → cache simulation) is instrumented throughout with the
helpers in this package; all of it is **no-op by default** and switched
on per run:

* :func:`span` — a context manager producing nested start/stop records
  with wall time and per-span attributes (:mod:`repro.obs.tracer`);
* :func:`inc` / :func:`set_gauge` / :func:`observe` — named counters,
  gauges and fixed-bucket histograms (:mod:`repro.obs.metrics`);
* :class:`RunSession` — one observed run: installs a fresh state,
  streams span events to JSONL sinks, and finishes with a **manifest**
  (config echo, git describe, phase-timing tree, metric snapshot) that
  ``repro-layout report`` renders and ``repro.analysis`` audits;
* :func:`self_times` — the per-stage self-time fold of a manifest's
  timing tree, the program's one stage-timing table.

Instrumentation must only *watch* the pipeline: with observability on
or off, every layout, miss count and report is byte-identical.

Usage::

    from repro import obs

    session = obs.RunSession("place", metrics_out="run.jsonl")
    with obs.span("build_trg", granularity="procedure"):
        ...
    obs.inc("gbsc.merge.offsets_evaluated", 256)
    manifest = session.finish()
"""

from repro.obs.clock import monotonic, wall_time
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.runtime import (
    Observability,
    current,
    disable,
    enable,
    inc,
    is_enabled,
    merge_snapshot,
    observe,
    restore,
    set_gauge,
    span,
)
from repro.obs.session import RunSession, format_duration, git_revision
from repro.obs.sinks import (
    MANIFEST_FORMAT,
    MANIFEST_VERSION,
    JsonlSink,
    build_manifest,
    self_times,
    span_event,
)
from repro.obs.tracer import SpanRecord, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MANIFEST_FORMAT",
    "MANIFEST_VERSION",
    "MetricsRegistry",
    "Observability",
    "RunSession",
    "SpanRecord",
    "Tracer",
    "build_manifest",
    "current",
    "disable",
    "enable",
    "format_duration",
    "git_revision",
    "inc",
    "is_enabled",
    "merge_snapshot",
    "monotonic",
    "observe",
    "restore",
    "self_times",
    "set_gauge",
    "span",
    "span_event",
    "wall_time",
]
