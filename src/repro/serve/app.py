"""The placement service application object (transport-free).

:class:`PlacementService` owns the shared artifact store and a private
:class:`~repro.obs.MetricsRegistry`; the HTTP layer
(:mod:`repro.serve.http`) is a thin adapter over its four methods
(:meth:`~PlacementService.upload_trace`,
:meth:`~PlacementService.place`, :meth:`~PlacementService.healthz`,
:meth:`~PlacementService.metrics`), so every behaviour is unit-testable
without a socket.

Concurrency model: the store keeps its single-writer contract under
``ThreadingHTTPServer`` by wrapping writes in :class:`LockedStore` —
``put``/``gc`` and the index read-merge-write serialize behind one
re-entrant lock while blob *reads* (the hot path for layout requests
against a warm store) stay lock-free.  The metrics registry is
single-threaded by design, so every instrument update happens under
the service's metrics lock.  The global :mod:`repro.obs` runtime stays
untouched while requests are in flight (it is also single-threaded by
design); the service's registry snapshot is folded into a run manifest
only at shutdown, from one thread, by
:func:`write_service_manifest`.
"""

from __future__ import annotations

import threading
from typing import Any, Mapping

from repro import obs
from repro.errors import ServiceError
from repro.io import layout_to_dict
from repro.obs.metrics import MetricsRegistry
from repro.serve.protocol import (
    PlaceSpec,
    UnknownArtifact,
    parse_place_payload,
)
from repro.service import PlacementRequest, run_placement
from repro.store import (
    ArtifactStore,
    artifact_digest,
    decode_trace,
    encode_trace,
    trace_content_fingerprint,
)

__all__ = [
    "LATENCY_EDGES",
    "LockedStore",
    "PlacementService",
    "write_service_manifest",
]

#: Request latency histogram buckets, in seconds.  Wide on purpose:
#: /healthz answers in microseconds, a cold gbsc placement in seconds.
LATENCY_EDGES = (0.001, 0.005, 0.025, 0.1, 0.5, 2.0, 10.0, 60.0)


class LockedStore(ArtifactStore):
    """An :class:`~repro.store.ArtifactStore` safe under one
    multi-threaded writer process.

    The base store assumes a single writer *thread*; here every index
    mutation (``put``, ``gc``, the read-merge-write in ``_refresh`` /
    ``_write_index``) takes a re-entrant lock, so concurrent request
    threads serialize their writes while ``get`` blob reads proceed
    without the lock.  The cross-*process* single-writer gate
    (owner-pid check in ``writable``) is inherited unchanged.
    """

    def __init__(self, root, readonly: bool = False) -> None:
        """Open the store; the lock must exist before the base
        constructor reads the index (it calls wrapped methods)."""
        self._lock = threading.RLock()
        super().__init__(root, readonly=readonly)

    def put(self, digest, kind, data, key=None):
        """Serialized :meth:`~repro.store.ArtifactStore.put`."""
        with self._lock:
            return super().put(digest, kind, data, key=key)

    def gc(self, max_bytes=None):
        """Serialized :meth:`~repro.store.ArtifactStore.gc`."""
        with self._lock:
            return super().gc(max_bytes=max_bytes)

    def _refresh(self):
        with self._lock:
            super()._refresh()

    def _write_index(self):
        with self._lock:
            super()._write_index()


def _upload_key(fingerprint: str) -> dict[str, str]:
    """Store key for an uploaded trace: its content fingerprint.

    Distinct in shape from the recipe key of a generated trace
    (:func:`repro.trace.generator.trace_key`), so uploads never
    collide with generated traces — but identical uploaded *content*
    always lands on one digest, which is what makes re-uploads dedupe
    across tenants.
    """
    return {"uploaded": fingerprint}


class PlacementService:
    """Placement-as-a-service over one shared artifact store."""

    def __init__(
        self,
        store: ArtifactStore,
        default_deadline: float | None = None,
    ) -> None:
        """Serve placements over *store* (use :class:`LockedStore`
        when the transport is multi-threaded); *default_deadline*
        applies to layout requests that do not set their own."""
        self.store = store
        self.default_deadline = default_deadline
        self._metrics_lock = threading.Lock()
        self._registry = MetricsRegistry()

    # -- endpoints -----------------------------------------------------

    def upload_trace(self, data: bytes) -> dict[str, Any]:
        """Fingerprint *data* (a saved ``.npz`` trace) into the store.

        Identical trace content maps to one digest regardless of who
        uploads it or how the ``.npz`` container was compressed, so a
        re-upload is a pure dedupe hit: nothing is written and the
        response says so.
        """
        if not data:
            raise ServiceError(
                "empty upload: POST the .npz bytes written by "
                "'repro-layout gen-trace'"
            )
        trace = decode_trace(data)
        fingerprint = trace_content_fingerprint(trace)
        key = _upload_key(fingerprint)
        digest = artifact_digest("trace", key)
        deduped = self.store.get(digest) is not None
        stored = deduped
        if not deduped:
            stored = self.store.put(
                digest, "trace", encode_trace(trace), key=key
            )
        with self._metrics_lock:
            self._registry.counter("serve.uploads").inc()
            if deduped:
                self._registry.counter("serve.uploads.deduped").inc()
        return {
            "digest": digest,
            "kind": "trace",
            "deduped": deduped,
            "stored": bool(stored),
            "events": len(trace),
            "procedures": len(trace.program),
        }

    def place(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Answer a layout request against an uploaded trace."""
        spec = parse_place_payload(
            payload, default_deadline=self.default_deadline
        )
        result = run_placement(self._placement_request(spec))
        with self._metrics_lock:
            self._registry.counter("serve.layouts").inc()
            self._registry.counter(
                f"serve.layouts.{result.algorithm}"
            ).inc()
        stats = result.train_stats
        return {
            "trace": spec.trace_digest,
            "algorithm": result.algorithm,
            "layout": layout_to_dict(result.layout),
            "train": {
                "fetches": stats.fetches,
                "misses": stats.misses,
                "miss_rate": stats.miss_rate,
            },
            "elapsed": result.elapsed,
            "deadline": spec.deadline,
        }

    def _placement_request(self, spec: PlaceSpec) -> PlacementRequest:
        data = self.store.get(spec.trace_digest)
        if data is None:
            raise UnknownArtifact(
                f"no artifact {spec.trace_digest!r} in the store; "
                "upload the trace first via POST /traces"
            )
        return PlacementRequest(
            trace=decode_trace(data),
            algorithm=spec.algorithm,
            config=spec.config,
            store=self.store,
            deadline=spec.deadline,
        )

    def healthz(self) -> dict[str, Any]:
        """Liveness: process up, store readable."""
        summary = self.store.stats()
        return {
            "status": "ok",
            "store": {
                "entries": summary["entries"],
                "writable": self.store.writable,
            },
        }

    def metrics(self) -> dict[str, Any]:
        """Request counters/latency plus the store's access stats.

        The derived ``store.hit_rate`` is promoted to a first-class
        gauge so scrapers see it next to the request counters instead
        of re-deriving it from ``hits``/``misses``.
        """
        summary = self.store.stats()
        with self._metrics_lock:
            self._registry.gauge("store.entries").set(summary["entries"])
            self._registry.gauge("store.stored_bytes").set(
                summary["bytes"]
            )
            self._registry.gauge("store.hit_rate").set(
                summary["hit_rate"] if summary["hit_rate"] is not None
                else 0.0
            )
            snapshot = self._registry.snapshot()
        return {"metrics": snapshot, "store": summary}

    # -- instrumentation ----------------------------------------------

    def record_request(
        self, endpoint: str, status: int, elapsed: float
    ) -> None:
        """Count one finished HTTP exchange (called per request)."""
        with self._metrics_lock:
            self._registry.counter("serve.requests").inc()
            self._registry.counter(f"serve.requests.{endpoint}").inc()
            self._registry.counter(f"serve.status.{status}").inc()
            if status >= 400:
                self._registry.counter("serve.errors").inc()
            self._registry.histogram(
                "serve.latency_seconds", edges=LATENCY_EDGES
            ).observe(elapsed)

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """The metrics section of :meth:`metrics` (store gauges fresh)."""
        return self.metrics()["metrics"]


def write_service_manifest(
    service: PlacementService,
    *,
    metrics_out: str,
    command: str = "serve",
    config: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Fold the service's registry into a run manifest at *metrics_out*.

    Called once, at shutdown, from the serving process's main thread —
    the global :mod:`repro.obs` runtime is single-threaded, so it is
    only enabled here, after the request threads have stopped.  The
    written manifest's ``metrics`` section therefore reconciles with
    the service's final ``/metrics`` answer (plus the session's own
    bookkeeping), and renders with ``repro-layout report``.
    """
    session = obs.RunSession(
        command=command,
        config=dict(config or {}),
        metrics_out=metrics_out,
    )
    try:
        obs.merge_snapshot(service.snapshot())
    finally:
        manifest = session.finish()
    return manifest
