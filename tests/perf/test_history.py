"""The benchmark history ledger (``repro.obs.perf.history``)."""

from __future__ import annotations

import json

import pytest

from repro.analysis import audit_run_path
from repro.chaos import sites
from repro.chaos.plan import FaultPlan, Injection
from repro.errors import PerfError, SimulatedCrash
from repro.obs import read_jsonl, sniff_format
from repro.obs.perf import (
    HISTORY_FORMAT,
    HISTORY_NAME,
    HISTORY_VERSION,
    append_record,
    bench_record,
    flatten_metrics,
    host_fingerprint,
    latest_records,
    read_history,
)


class TestHostFingerprint:
    def test_shape(self):
        host = host_fingerprint()
        assert set(host) == {"cpu_count", "platform", "python"}
        assert host["cpu_count"] >= 1
        assert json.dumps(host)  # JSON-serialisable


class TestFlattenMetrics:
    def test_nested_keys_join_with_dots(self):
        flat = flatten_metrics(
            {"a": 1, "nested": {"b": 2.5, "deeper": {"c": 3}}}
        )
        assert flat == {"a": 1.0, "nested.b": 2.5, "nested.deeper.c": 3.0}

    def test_non_numeric_leaves_dropped(self):
        flat = flatten_metrics(
            {"rate": 0.5, "label": "gcc", "ok": True, "none": None}
        )
        assert flat == {"rate": 0.5}


class TestBenchRecord:
    def test_record_shape(self):
        record = bench_record("table1:gcc", {"miss_rate": 0.04})
        assert record["format"] == HISTORY_FORMAT
        assert record["version"] == HISTORY_VERSION
        assert record["bench"] == "table1:gcc"
        assert record["metrics"] == {"miss_rate": 0.04}
        assert set(record["host"]) == {"cpu_count", "platform", "python"}
        assert isinstance(record["unix_time"], float)

    def test_empty_bench_id_rejected(self):
        with pytest.raises(PerfError):
            bench_record("", {"miss_rate": 0.04})

    def test_no_numeric_metrics_rejected(self):
        with pytest.raises(PerfError, match="no numeric metrics"):
            bench_record("b", {"label": "gcc"})


class TestLedgerRoundTrip:
    def test_append_then_read(self, tmp_path):
        path = tmp_path / HISTORY_NAME
        first = bench_record("b1", {"x": 1.0})
        second = bench_record("b2", {"x": 2.0})
        append_record(path, first)
        append_record(path, second)
        assert read_history(path) == [first, second]

    def test_lines_are_sorted_json(self, tmp_path):
        path = tmp_path / HISTORY_NAME
        append_record(path, bench_record("b", {"z": 1.0, "a": 2.0}))
        (line,) = path.read_text().splitlines()
        assert line == json.dumps(json.loads(line), sort_keys=True)

    def test_append_refuses_foreign_records(self, tmp_path):
        with pytest.raises(PerfError, match="refusing to append"):
            append_record(tmp_path / HISTORY_NAME, {"bench": "b"})

    def test_read_missing_file_raises(self, tmp_path):
        with pytest.raises(PerfError, match="not found"):
            read_history(tmp_path / HISTORY_NAME)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("{not json", "unparseable"),
            ("[1, 2]", "not an object"),
            ('{"format": "other/format"}', "unexpected format"),
            (
                json.dumps({"format": HISTORY_FORMAT, "version": 99}),
                "unsupported ledger version",
            ),
        ],
    )
    def test_read_is_strict(self, tmp_path, line, message):
        path = tmp_path / HISTORY_NAME
        path.write_text(line + "\n")
        with pytest.raises(PerfError, match=message):
            read_history(path)

    def test_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / HISTORY_NAME
        record = bench_record("b", {"x": 1.0})
        append_record(path, record)
        with path.open("a") as handle:
            handle.write('{"format": "repro/perf-hi')
        assert read_history(path) == [record]

    def test_append_after_torn_tail_starts_a_fresh_line(self, tmp_path):
        """A crash mid-append leaves a torn tail; the next append cuts
        it off instead of gluing its record onto the fragment."""
        path = tmp_path / HISTORY_NAME
        first = bench_record("b", {"x": 1.0})
        second = bench_record("b", {"x": 2.0})
        append_record(path, first)
        with sites.installed(
            FaultPlan(
                [Injection(site="perf.history", point="data", error="torn")]
            )
        ):
            with pytest.raises(SimulatedCrash):
                append_record(path, bench_record("b", {"x": 9.0}))
        assert read_jsonl(path).torn
        append_record(path, second)
        assert read_history(path) == [first, second]
        assert not read_jsonl(path).torn

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / HISTORY_NAME
        append_record(path, bench_record("b", {"x": 1.0}))
        path.open("a").write("\n\n")
        assert len(read_history(path)) == 1


class TestLatestRecords:
    def test_last_record_per_bench_wins(self):
        records = [
            {"bench": "a", "metrics": {"x": 1.0}},
            {"bench": "b", "metrics": {"x": 2.0}},
            {"bench": "a", "metrics": {"x": 3.0}},
        ]
        latest = latest_records(records)
        assert latest["a"]["metrics"] == {"x": 3.0}
        assert latest["b"]["metrics"] == {"x": 2.0}

    def test_nameless_records_ignored(self):
        assert latest_records([{"metrics": {}}, {"bench": ""}]) == {}


class TestIsHistoryFile:
    """``audit_run_path`` routes a ledger by its canonical filename or
    by its ``repro/perf-history`` stamp, and nothing else."""

    def test_canonical_name_matches(self, tmp_path):
        path = tmp_path / HISTORY_NAME
        path.write_text('{"type": "span", "name": "a"}\n')
        assert sniff_format(path) is None
        assert {f.rule for f in audit_run_path(path)} == {
            "perf/history-parse"
        }

    def test_content_sniffing(self, tmp_path):
        path = tmp_path / "other.jsonl"
        append_record(path, bench_record("b", {"x": 1.0}))
        assert sniff_format(path) == HISTORY_FORMAT
        assert audit_run_path(path) == []

    def test_run_manifest_is_not_a_ledger(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"format": "repro/manifest", "type": "span"}\n')
        assert sniff_format(path) == "repro/manifest"
        rules = {f.rule for f in audit_run_path(path)}
        assert rules and not any(r.startswith("perf/") for r in rules)

    def test_garbage_never_raises(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_bytes(b"\xff\xfe{not json")
        assert sniff_format(path) is None
        assert {f.rule for f in audit_run_path(path)} == {
            "manifest/missing"
        }
