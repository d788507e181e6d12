"""Unit tests for the transport-free service layer: payload parsing,
status mapping, upload dedupe and the thread-safe store."""

from __future__ import annotations

import threading

import pytest

from repro.cache.config import PAPER_CACHE
from repro.errors import (
    ReproError,
    ServiceError,
    StoreError,
    TaskTimeout,
)
from repro.serve import (
    HttpError,
    LockedStore,
    PlacementService,
    UnknownArtifact,
    error_payload,
    parse_place_payload,
    status_for,
    write_service_manifest,
)
from repro.store import artifact_digest, encode_trace
from repro.workloads.suite import by_name


@pytest.fixture(scope="module")
def tiny_trace():
    return by_name("m88ksim").scaled(0.02).trace("train")


@pytest.fixture(scope="module")
def trace_bytes(tiny_trace):
    return encode_trace(tiny_trace)


@pytest.fixture
def service(tmp_path):
    return PlacementService(LockedStore(tmp_path / "store"))


class TestParsePlacePayload:
    def test_defaults(self):
        spec = parse_place_payload({"trace": "abc"})
        assert spec.trace_digest == "abc"
        assert spec.algorithm == "gbsc"
        assert spec.config == PAPER_CACHE
        assert spec.deadline is None

    def test_server_default_deadline_applies(self):
        spec = parse_place_payload({"trace": "abc"}, default_deadline=5)
        assert spec.deadline == 5.0

    def test_request_deadline_wins(self):
        spec = parse_place_payload(
            {"trace": "abc", "deadline": 2}, default_deadline=5
        )
        assert spec.deadline == 2.0

    def test_cache_overrides(self):
        spec = parse_place_payload(
            {"trace": "abc", "cache": {"size": 4096, "associativity": 2}}
        )
        assert spec.config.size == 4096
        assert spec.config.associativity == 2
        assert spec.config.line_size == PAPER_CACHE.line_size

    @pytest.mark.parametrize(
        "payload",
        [
            "not a mapping",
            {},
            {"trace": 7},
            {"trace": ""},
            {"trace": "abc", "surprise": 1},
            {"trace": "abc", "algorithm": "nope"},
            {"trace": "abc", "deadline": "soon"},
            {"trace": "abc", "deadline": True},
            {"trace": "abc", "cache": {"size": "big"}},
            {"trace": "abc", "cache": {"sets": 4}},
            {"trace": "abc", "algorithm": ["gbsc"]},
            {"trace": "abc", "deadline": 0},
            {"trace": "abc", "deadline": float("nan")},
            {"trace": "abc", "deadline": float("inf")},
        ],
    )
    def test_rejected_shapes(self, payload):
        with pytest.raises(ServiceError):
            parse_place_payload(payload)


class TestStatusMapping:
    @pytest.mark.parametrize(
        ("error", "status"),
        [
            (HttpError(405, "method"), 405),
            (HttpError(413, "too big"), 413),
            (UnknownArtifact("gone"), 404),
            (TaskTimeout("overran"), 504),
            (StoreError("backend"), 500),
            (ServiceError("bad shape"), 400),
            (ReproError("generic"), 400),
            (ValueError("a bug"), 500),
        ],
    )
    def test_status_for(self, error, status):
        assert status_for(error) == status

    def test_error_payload_envelope(self):
        payload = error_payload(404, UnknownArtifact("gone"))
        assert payload == {
            "error": {
                "status": 404,
                "type": "UnknownArtifact",
                "message": "gone",
            }
        }


class TestUpload:
    def test_empty_body_rejected(self, service):
        with pytest.raises(ServiceError):
            service.upload_trace(b"")

    def test_upload_then_dedupe(self, service, trace_bytes, tiny_trace):
        first = service.upload_trace(trace_bytes)
        assert first["deduped"] is False
        assert first["stored"] is True
        assert first["events"] == len(tiny_trace)
        assert first["procedures"] == len(tiny_trace.program)
        second = service.upload_trace(trace_bytes)
        assert second["digest"] == first["digest"]
        assert second["deduped"] is True
        snapshot = service.snapshot()
        assert snapshot["serve.uploads"]["value"] == 2
        assert snapshot["serve.uploads.deduped"]["value"] == 1

    def test_recompression_still_dedupes(self, service, tiny_trace):
        """The digest is content-addressed, so a re-encoded container
        with identical trace content lands on the same entry."""
        first = service.upload_trace(encode_trace(tiny_trace))
        second = service.upload_trace(encode_trace(tiny_trace))
        assert second["digest"] == first["digest"]
        assert second["deduped"] is True


class TestPlace:
    def test_unknown_digest_raises(self, service):
        with pytest.raises(UnknownArtifact):
            service.place({"trace": "f" * 64})

    def test_place_counts_per_algorithm(self, service, trace_bytes):
        digest = service.upload_trace(trace_bytes)["digest"]
        response = service.place(
            {"trace": digest, "algorithm": "default"}
        )
        assert response["algorithm"] == "default"
        assert response["layout"]["format"] == "repro/layout"
        assert response["train"]["fetches"] > 0
        snapshot = service.snapshot()
        assert snapshot["serve.layouts"]["value"] == 1
        assert snapshot["serve.layouts.default"]["value"] == 1


class TestHealthAndMetrics:
    def test_healthz(self, service):
        body = service.healthz()
        assert body["status"] == "ok"
        assert body["store"]["writable"] is True

    def test_hit_rate_is_a_first_class_gauge(self, service, trace_bytes):
        body = service.metrics()
        assert body["metrics"]["store.hit_rate"]["value"] == 0.0
        digest = service.upload_trace(trace_bytes)["digest"]
        service.place({"trace": digest, "algorithm": "default"})
        service.place({"trace": digest, "algorithm": "default"})
        warm = service.metrics()
        assert warm["metrics"]["store.hit_rate"]["value"] > 0.0
        assert warm["metrics"]["store.entries"]["value"] >= 1

    def test_record_request_instruments(self, service):
        service.record_request("healthz", 200, 0.002)
        service.record_request("layouts", 504, 1.5)
        snapshot = service.snapshot()
        assert snapshot["serve.requests"]["value"] == 2
        assert snapshot["serve.requests.healthz"]["value"] == 1
        assert snapshot["serve.status.504"]["value"] == 1
        assert snapshot["serve.errors"]["value"] == 1
        assert snapshot["serve.latency_seconds"]["count"] == 2

    def test_manifest_reconciles_with_snapshot(self, service, tmp_path):
        service.record_request("healthz", 200, 0.001)
        service.record_request("metrics", 200, 0.001)
        out = tmp_path / "serve.jsonl"
        manifest = write_service_manifest(service, metrics_out=str(out))
        assert out.exists()
        metrics = manifest["metrics"]
        assert metrics["serve.requests"]["value"] == 2
        assert metrics["store.hit_rate"]["value"] == 0.0


class TestLockedStore:
    def test_concurrent_puts_all_land(self, tmp_path):
        store = LockedStore(tmp_path / "store")
        errors: list[BaseException] = []

        def put_one(index: int) -> None:
            key = {"uploaded": f"thread-{index}"}
            digest = artifact_digest("trace", key)
            try:
                assert store.put(digest, "trace", b"x" * index, key=key)
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=put_one, args=(index,))
            for index in range(1, 17)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert store.stats()["entries"] == 16
