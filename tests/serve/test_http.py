"""End-to-end tests over a real socket: an ephemeral-port
``ThreadingHTTPServer`` driven with ``urllib``/``http.client``."""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.io import save_trace
from repro.serve import (
    LockedStore,
    PlacementService,
    make_server,
    write_service_manifest,
)
from repro.store import encode_trace
from repro.workloads.suite import by_name


@pytest.fixture(scope="module")
def tiny_trace():
    return by_name("m88ksim").scaled(0.02).trace("train")


@pytest.fixture(scope="module")
def trace_bytes(tiny_trace):
    return encode_trace(tiny_trace)


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory, tiny_trace):
    path = tmp_path_factory.mktemp("serve") / "train.npz"
    save_trace(tiny_trace, path)
    return path


@pytest.fixture
def served(tmp_path):
    """A live server on an ephemeral port; yields (base_url, app)."""
    app = PlacementService(LockedStore(tmp_path / "store"))
    server = make_server("127.0.0.1", 0, app)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}", app
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def request(url, method="GET", data=None):
    """(status, decoded JSON body) for one exchange; never raises on
    HTTP error statuses."""
    req = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def place(base, payload):
    return request(
        f"{base}/layouts",
        method="POST",
        data=json.dumps(payload).encode(),
    )


def wait_for_requests(app, count, tries=500):
    """Block until *count* requests are recorded.  A request is counted
    *after* its response is written, so a client can observe the
    response before the counter moves; tests synchronise here."""
    for _ in range(tries):
        snapshot = app.snapshot()
        recorded = snapshot.get("serve.requests", {}).get("value", 0)
        if recorded >= count:
            return recorded
        time.sleep(0.01)
    raise AssertionError(f"never saw {count} recorded requests")


class TestEndpoints:
    def test_healthz(self, served):
        base, _ = served
        status, body = request(f"{base}/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["store"]["writable"] is True

    def test_upload_place_dedupe_flow(self, served, trace_bytes):
        base, _ = served
        status, first = request(
            f"{base}/traces", method="POST", data=trace_bytes
        )
        assert status == 200
        assert first["deduped"] is False

        status, layout = place(
            base, {"trace": first["digest"], "algorithm": "gbsc"}
        )
        assert status == 200
        assert layout["algorithm"] == "GBSC"
        assert layout["layout"]["format"] == "repro/layout"
        assert 0.0 <= layout["train"]["miss_rate"] <= 1.0

        status, again = request(
            f"{base}/traces", method="POST", data=trace_bytes
        )
        assert status == 200
        assert again["digest"] == first["digest"]
        assert again["deduped"] is True

        status, metrics = request(f"{base}/metrics")
        assert status == 200
        assert metrics["metrics"]["serve.uploads.deduped"]["value"] == 1

    def test_layout_matches_cli_place(
        self, served, trace_bytes, trace_file, tmp_path
    ):
        """The acceptance contract: a layout served over HTTP is the
        same document ``repro-layout place`` writes for that trace."""
        base, _ = served
        _, uploaded = request(
            f"{base}/traces", method="POST", data=trace_bytes
        )
        _, served_layout = place(base, {"trace": uploaded["digest"]})

        cli_out = tmp_path / "cli.json"
        assert (
            main(
                [
                    "place",
                    str(trace_file),
                    "--algorithm",
                    "gbsc",
                    "-o",
                    str(cli_out),
                ]
            )
            == 0
        )
        assert served_layout["layout"] == json.loads(
            cli_out.read_text()
        )

    def test_concurrent_uploads_and_places(
        self, served, trace_bytes, trace_file, tmp_path
    ):
        """Concurrent clients all get full answers and identical
        layouts; the shared store survives the write contention."""
        base, app = served
        _, uploaded = request(
            f"{base}/traces", method="POST", data=trace_bytes
        )
        digest = uploaded["digest"]
        results: list[tuple[int, dict]] = []
        lock = threading.Lock()

        def upload_worker() -> None:
            outcome = request(
                f"{base}/traces", method="POST", data=trace_bytes
            )
            with lock:
                results.append(outcome)

        def place_worker() -> None:
            outcome = place(base, {"trace": digest, "algorithm": "gbsc"})
            with lock:
                results.append(outcome)

        threads = [threading.Thread(target=upload_worker) for _ in range(3)]
        threads += [threading.Thread(target=place_worker) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert len(results) == 6
        assert all(status == 200 for status, _ in results)

        layouts = [
            body["layout"] for _, body in results if "layout" in body
        ]
        assert len(layouts) == 3
        cli_out = tmp_path / "cli.json"
        assert (
            main(["place", str(trace_file), "-o", str(cli_out)]) == 0
        )
        expected = json.loads(cli_out.read_text())
        assert all(layout == expected for layout in layouts)
        assert all(
            body["deduped"] for _, body in results if "deduped" in body
        )


class TestErrorStatuses:
    def test_deadline_overrun_is_504(self, served, trace_bytes):
        base, _ = served
        _, uploaded = request(
            f"{base}/traces", method="POST", data=trace_bytes
        )
        status, body = place(
            base, {"trace": uploaded["digest"], "deadline": 1e-9}
        )
        assert status == 504
        assert body["error"]["type"] == "TaskTimeout"

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_deadline_is_400(self, served, literal):
        """Python's json accepts these literals; the request must not
        run with no deadline at all."""
        base, _ = served
        status, body = request(
            f"{base}/layouts",
            method="POST",
            data=f'{{"trace": "abc", "deadline": {literal}}}'.encode(),
        )
        assert status == 400
        assert "deadline must be finite" in body["error"]["message"]

    def test_oversized_cache_is_400(self, served):
        """A 2**40-byte cache is refused before any per-line state is
        allocated (it used to run for minutes or exhaust memory)."""
        base, _ = served
        started = time.monotonic()
        status, body = place(
            base, {"trace": "abc", "cache": {"size": 2**40}}
        )
        assert status == 400
        assert body["error"]["type"] == "ConfigError"
        assert "exceeds the limit" in body["error"]["message"]
        assert time.monotonic() - started < 10

    def test_malformed_json_is_400(self, served):
        base, _ = served
        status, body = request(
            f"{base}/layouts", method="POST", data=b"{not json"
        )
        assert status == 400
        assert "JSON" in body["error"]["message"]

    def test_unknown_request_key_is_400(self, served):
        base, _ = served
        status, body = place(base, {"trace": "abc", "surprise": 1})
        assert status == 400
        assert body["error"]["type"] == "ServiceError"

    def test_unknown_digest_is_404(self, served):
        base, _ = served
        status, body = place(base, {"trace": "f" * 64})
        assert status == 404
        assert body["error"]["type"] == "UnknownArtifact"

    def test_wrong_method_is_405(self, served):
        base, _ = served
        status, body = request(
            f"{base}/healthz", method="POST", data=b"{}"
        )
        assert status == 405

    def test_unknown_path_is_404(self, served):
        base, _ = served
        status, body = request(f"{base}/nope")
        assert status == 404
        assert body["error"]["type"] == "HttpError"

    def test_missing_content_length_is_411(self, served):
        base, _ = served
        host, port = base.removeprefix("http://").split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=30)
        try:
            connection.putrequest(
                "POST", "/traces", skip_accept_encoding=True
            )
            connection.endheaders()
            response = connection.getresponse()
            body = json.loads(response.read())
            assert response.status == 411
            assert "Content-Length" in body["error"]["message"]
        finally:
            connection.close()


class TestMetricsReconcile:
    def test_manifest_matches_request_count(
        self, served, trace_bytes, tmp_path
    ):
        """The shutdown manifest's counters cover every request made,
        including the final ``/metrics`` scrape (which is recorded
        *after* its own response is written)."""
        base, app = served
        _, uploaded = request(
            f"{base}/traces", method="POST", data=trace_bytes
        )
        request(f"{base}/healthz")
        place(base, {"trace": uploaded["digest"], "algorithm": "default"})
        wait_for_requests(app, 3)
        status, scraped = request(f"{base}/metrics")
        assert status == 200
        # The scrape itself is the 4th request but is counted after
        # responding, so its own body reports the three before it.
        assert scraped["metrics"]["serve.requests"]["value"] == 3
        wait_for_requests(app, 4)

        out = tmp_path / "serve.jsonl"
        manifest = write_service_manifest(app, metrics_out=str(out))
        metrics = manifest["metrics"]
        assert metrics["serve.requests"]["value"] == 4
        assert metrics["serve.requests.traces"]["value"] == 1
        assert metrics["serve.requests.healthz"]["value"] == 1
        assert metrics["serve.requests.layouts"]["value"] == 1
        assert metrics["serve.requests.metrics"]["value"] == 1
        assert metrics["serve.uploads"]["value"] == 1
        assert metrics["serve.layouts.default"]["value"] == 1
        assert metrics["serve.latency_seconds"]["count"] == 4
        assert metrics["serve.status.200"]["value"] == 4

        audit = main(["check", str(out)])
        assert audit == 0
