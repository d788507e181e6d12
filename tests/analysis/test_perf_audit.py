"""The ``perf/*`` audit rules over benchmark history ledgers."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    PERF_RULES,
    Severity,
    audit_perf_history,
    audit_run_path,
)
from repro.errors import AnalysisError
from repro.obs.perf import (
    BASELINES_FORMAT,
    BASELINES_VERSION,
    append_record,
    bench_record,
)


def write_ledger(tmp_path, *records: dict) -> Path:
    path = tmp_path / "HISTORY.jsonl"
    for record in records:
        append_record(path, record)
    return path


def write_baselines(tmp_path, *benches: str) -> Path:
    path = tmp_path / "baselines.json"
    path.write_text(json.dumps({
        "format": BASELINES_FORMAT,
        "version": BASELINES_VERSION,
        "benches": {
            bench: {
                "metrics": {
                    "x": {"baseline": 1.0, "direction": "lower",
                          "tolerance": 0.1}
                }
            }
            for bench in benches
        },
    }))
    return path


class TestHistoryParse:
    def test_clean_ledger_has_no_findings(self, tmp_path):
        ledger = write_ledger(
            tmp_path,
            bench_record("b", {"x": 1.0}),
            bench_record("b", {"x": 1.1}),
        )
        assert audit_perf_history(ledger) == []

    def test_missing_ledger_raises(self, tmp_path):
        with pytest.raises(AnalysisError, match="no history ledger"):
            audit_perf_history(tmp_path / "nope.jsonl")

    @pytest.mark.parametrize(
        "line, fragment",
        [
            ("{not json", "unparseable"),
            ("[]", "not an object"),
            ('{"format": "other"}', "unexpected format"),
            (
                '{"format": "repro/perf-history", "version": 9}',
                "unsupported ledger version",
            ),
            (
                '{"format": "repro/perf-history", "version": 1}',
                "no bench id",
            ),
            (
                '{"format": "repro/perf-history", "version": 1, '
                '"bench": "b", "metrics": {"x": "fast"}}',
                "no flat numeric metrics",
            ),
        ],
    )
    def test_defective_lines_become_findings(
        self, tmp_path, line, fragment
    ):
        ledger = write_ledger(tmp_path, bench_record("b", {"x": 1.0}))
        ledger.open("a").write(line + "\n")
        findings = audit_perf_history(ledger)
        parse = [f for f in findings if f.rule == "perf/history-parse"]
        assert len(parse) == 1
        assert fragment in parse[0].message
        assert parse[0].location.line == 2

    def test_torn_tail_is_a_warning(self, tmp_path):
        ledger = write_ledger(tmp_path, bench_record("b", {"x": 1.0}))
        with ledger.open("a") as handle:
            handle.write('{"format": "repro/perf-hi')
        (finding,) = audit_perf_history(ledger)
        assert finding.rule == "perf/history-parse"
        assert finding.severity is Severity.WARNING
        assert "torn" in finding.message

    def test_parsing_continues_past_defects(self, tmp_path):
        ledger = tmp_path / "HISTORY.jsonl"
        ledger.write_text("{broken\n")
        append_record(ledger, bench_record("b", {"x": 1.0}))
        findings = audit_perf_history(ledger)
        # One parse finding for the broken line, but the valid record
        # after it still suppresses the empty-ledger warning.
        assert [f.rule for f in findings] == ["perf/history-parse"]

    def test_empty_ledger_warns(self, tmp_path):
        ledger = tmp_path / "HISTORY.jsonl"
        ledger.write_text("\n")
        (finding,) = audit_perf_history(ledger)
        assert finding.rule == "perf/history-parse"
        assert "no valid records" in finding.message


class TestHostMismatch:
    def test_consecutive_host_change_warns(self, tmp_path):
        a = bench_record("b", {"x": 1.0})
        b = bench_record("b", {"x": 1.1})
        b["host"] = dict(b["host"], cpu_count=999)
        ledger = write_ledger(tmp_path, a, b)
        (finding,) = audit_perf_history(ledger)
        assert finding.rule == "perf/host-mismatch"
        assert finding.severity.value == "warning"
        assert "not comparable" in finding.message

    def test_different_benches_do_not_cross_warn(self, tmp_path):
        a = bench_record("b1", {"x": 1.0})
        b = bench_record("b2", {"x": 1.0})
        b["host"] = dict(b["host"], cpu_count=999)
        assert audit_perf_history(write_ledger(tmp_path, a, b)) == []


class TestBaselineMissing:
    def test_absent_baselines_file_is_an_error(self, tmp_path):
        ledger = write_ledger(tmp_path, bench_record("b", {"x": 1.0}))
        (finding,) = audit_perf_history(
            ledger, baselines=tmp_path / "nope.json"
        )
        assert finding.rule == "perf/baseline-missing"
        assert finding.severity.value == "error"

    def test_unusable_baselines_file_is_an_error(self, tmp_path):
        ledger = write_ledger(tmp_path, bench_record("b", {"x": 1.0}))
        bad = tmp_path / "baselines.json"
        bad.write_text("{nope")
        (finding,) = audit_perf_history(ledger, baselines=bad)
        assert finding.rule == "perf/baseline-missing"
        assert "unusable" in finding.message

    def test_ungated_bench_warns(self, tmp_path):
        ledger = write_ledger(
            tmp_path,
            bench_record("gated", {"x": 1.0}),
            bench_record("loose", {"x": 1.0}),
        )
        baselines = write_baselines(tmp_path, "gated")
        (finding,) = audit_perf_history(ledger, baselines=baselines)
        assert finding.rule == "perf/baseline-missing"
        assert finding.severity.value == "warning"
        assert "'loose'" in finding.message

    def test_fully_gated_ledger_is_clean(self, tmp_path):
        ledger = write_ledger(tmp_path, bench_record("b", {"x": 1.0}))
        baselines = write_baselines(tmp_path, "b")
        assert audit_perf_history(ledger, baselines=baselines) == []

    def test_no_baselines_argument_skips_the_check(self, tmp_path):
        ledger = write_ledger(tmp_path, bench_record("b", {"x": 1.0}))
        assert audit_perf_history(ledger) == []


class TestRouting:
    def test_audit_run_path_recognises_ledgers_by_name(self, tmp_path):
        ledger = write_ledger(tmp_path, bench_record("b", {"x": 1.0}))
        assert audit_run_path(ledger) == []
        ledger.open("a").write("{broken\n")
        findings = audit_run_path(ledger)
        assert [f.rule for f in findings] == ["perf/history-parse"]

    def test_audit_run_path_recognises_ledgers_by_content(self, tmp_path):
        path = tmp_path / "perf-log.jsonl"
        append_record(path, bench_record("b", {"x": 1.0}))
        assert audit_run_path(path) == []

    def test_rules_tuple_matches_reported_rules(self):
        assert set(PERF_RULES) == {
            "perf/history-parse",
            "perf/baseline-missing",
            "perf/host-mismatch",
        }
