"""The ``repro-layout perf {record,diff,check}`` family."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import obs
from repro.cli import main
from repro.obs import RunSession
from repro.obs.perf import (
    BASELINES_FORMAT,
    BASELINES_VERSION,
    append_record,
    bench_record,
    read_history,
)


def make_run(path: Path):
    """Write a real run file via a RunSession and return its manifest."""
    session = RunSession(
        "place",
        config={"algorithm": "gbsc"},
        metrics_out=path,
        with_git=False,
    )
    with obs.span("phase"):
        obs.inc("events", 2)
    return session.finish()


@pytest.fixture
def ledger(tmp_path) -> Path:
    path = tmp_path / "HISTORY.jsonl"
    append_record(path, bench_record("table1:gcc", {"miss_rate": 0.040}))
    append_record(path, bench_record("table1:gcc", {"miss_rate": 0.041}))
    return path


def write_baselines(tmp_path, miss_rate: float, tolerance: float) -> Path:
    path = tmp_path / "baselines.json"
    path.write_text(json.dumps({
        "format": BASELINES_FORMAT,
        "version": BASELINES_VERSION,
        "benches": {
            "table1:gcc": {
                "metrics": {
                    "miss_rate": {
                        "baseline": miss_rate,
                        "direction": "lower",
                        "tolerance": tolerance,
                    }
                }
            }
        },
    }))
    return path


class TestPerfRecord:
    def test_records_inline_metrics(self, tmp_path, capsys):
        history = tmp_path / "HISTORY.jsonl"
        assert main([
            "perf", "record", "bench:x",
            "--metric", "miss_rate=0.04", "--metric", "wall_s=1.5",
            "--history", str(history),
        ]) == 0
        assert "recorded bench:x: 2 metric(s)" in capsys.readouterr().out
        (record,) = read_history(history)
        assert record["metrics"] == {"miss_rate": 0.04, "wall_s": 1.5}
        assert set(record["host"]) == {"cpu_count", "platform", "python"}

    def test_records_from_json_file(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        metrics.write_text('{"nested": {"rate": 0.5}, "label": "gcc"}')
        history = tmp_path / "HISTORY.jsonl"
        assert main([
            "perf", "record", "bench:x",
            "--from-json", str(metrics), "--history", str(history),
        ]) == 0
        (record,) = read_history(history)
        assert record["metrics"] == {"nested.rate": 0.5}

    def test_bad_metric_exits_2(self, tmp_path, capsys):
        assert main([
            "perf", "record", "b", "--metric", "rate=fast",
            "--history", str(tmp_path / "h.jsonl"),
        ]) == 2
        assert "not a number" in capsys.readouterr().err

    def test_no_metrics_exits_2(self, tmp_path, capsys):
        assert main([
            "perf", "record", "b",
            "--history", str(tmp_path / "h.jsonl"),
        ]) == 2


class TestPerfDiff:
    def test_two_run_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        make_run(a)
        make_run(b)
        assert main(["perf", "diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "manifest diff: a=place" in out
        assert "events" in out

    def test_json_output_is_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        make_run(a)
        make_run(b)
        assert main(["perf", "diff", str(a), str(b), "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["perf", "diff", str(a), str(b), "--json"]) == 0
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert payload["format"] == "repro/manifest-diff"

    def test_history_mode_diffs_last_two_records(self, ledger, capsys):
        assert main(["perf", "diff", "--history", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "record diff: a=table1:gcc" in out
        assert "miss_rate" in out

    def test_history_mode_bench_filter(self, ledger, capsys):
        append_record(
            ledger, bench_record("other", {"miss_rate": 1.0})
        )
        assert main([
            "perf", "diff", "--history", str(ledger),
            "--bench", "table1:gcc",
        ]) == 0
        assert "a=table1:gcc" in capsys.readouterr().out

    def test_history_mode_needs_two_records(self, tmp_path, capsys):
        history = tmp_path / "HISTORY.jsonl"
        append_record(history, bench_record("b", {"x": 1.0}))
        assert main(["perf", "diff", "--history", str(history)]) == 2
        assert "at least two records" in capsys.readouterr().err

    def test_wrong_arity_exits_2(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        make_run(a)
        assert main(["perf", "diff", str(a)]) == 2


class TestPerfCheck:
    def test_clean_baseline_exits_0(self, tmp_path, ledger, capsys):
        baselines = write_baselines(tmp_path, 0.040, tolerance=0.05)
        assert main([
            "perf", "check", "--history", str(ledger),
            "--baselines", str(baselines),
        ]) == 0
        out = capsys.readouterr().out
        assert "OK: 1 gated metrics within tolerance" in out

    def test_synthetic_slowdown_exits_1(self, tmp_path, ledger, capsys):
        """The regression fixture: inject a 50% slowdown on top of a
        recorded baseline and require the gate to trip."""
        baselines = write_baselines(tmp_path, 0.040, tolerance=0.05)
        append_record(
            ledger, bench_record("table1:gcc", {"miss_rate": 0.060})
        )
        assert main([
            "perf", "check", "--history", str(ledger),
            "--baselines", str(baselines),
        ]) == 1
        out = capsys.readouterr().out
        assert "[regression]" in out
        assert "FAIL: 1 of 1 gated metrics" in out

    def test_dropped_metric_exits_1(self, tmp_path, ledger, capsys):
        baselines = write_baselines(tmp_path, 0.040, tolerance=0.05)
        append_record(ledger, bench_record("table1:gcc", {"other": 1.0}))
        assert main([
            "perf", "check", "--history", str(ledger),
            "--baselines", str(baselines),
        ]) == 1
        assert "[   missing]" in capsys.readouterr().out

    def test_missing_baselines_file_exits_1(self, tmp_path, ledger, capsys):
        assert main([
            "perf", "check", "--history", str(ledger),
            "--baselines", str(tmp_path / "nope.json"),
        ]) == 1
        assert "perf/baseline-missing" in capsys.readouterr().out

    def test_corrupt_ledger_exits_1_via_findings(self, tmp_path, capsys):
        history = tmp_path / "HISTORY.jsonl"
        history.write_text("{not json\n")
        baselines = write_baselines(tmp_path, 0.040, tolerance=0.05)
        assert main([
            "perf", "check", "--history", str(history),
            "--baselines", str(baselines),
        ]) == 1
        assert "perf/history-parse" in capsys.readouterr().out

    def test_missing_ledger_exits_2(self, tmp_path, capsys):
        assert main([
            "perf", "check",
            "--history", str(tmp_path / "nope.jsonl"),
            "--baselines", str(tmp_path / "nope.json"),
        ]) == 2


class TestRemovedSurfaces:
    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(
                ["place", "t.npz", "-o", "l.json", "--profile"],
                id="profile-flag",
            ),
            pytest.param(["perf", "profile", "run.jsonl"], id="perf-profile"),
            pytest.param(
                ["report", "--diff", "a.jsonl", "b.jsonl"], id="report-diff"
            ),
            pytest.param(
                ["report", "a.jsonl", "b.jsonl"], id="report-two-runs"
            ),
        ],
    )
    def test_exits_2_as_unrecognised(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err
