"""The ``report`` subcommand and its manifest rendering."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.eval.reporting import format_manifest_report
from repro.obs import MANIFEST_FORMAT, MANIFEST_VERSION


@pytest.fixture
def manifest() -> dict:
    return {
        "type": "manifest",
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "command": "place",
        "config": {"algorithm": "gbsc"},
        "git": "abc1234",
        "unix_time": 0.0,
        "elapsed": 0.15,
        "timings": [
            {
                "name": "build_context",
                "start": 0.0,
                "duration": 0.1,
                "attributes": {"events": 2500},
                "children": [
                    {"name": "build_wcg", "start": 0.01, "duration": 0.04}
                ],
            },
            {"name": "place", "start": 0.1, "duration": 0.05},
        ],
        "metrics": {
            "cache.sim.misses": {"kind": "counter", "value": 2739},
            "cache.sim.last_miss_rate": {"kind": "gauge", "value": 0.0126},
            "gap.sizes": {
                "kind": "histogram",
                "edges": [32, 256],
                "counts": [1, 2, 0],
                "count": 3,
                "sum": 300,
                "min": 10,
                "max": 200,
            },
        },
    }


class TestFormatManifestReport:
    def test_golden_shape(self, manifest):
        text = format_manifest_report(manifest, width=10)
        lines = text.splitlines()
        assert lines[0] == "run: place  (git abc1234)  elapsed 150.0ms"
        assert lines[1] == "config: algorithm=gbsc"
        assert "phases:" in lines
        assert "timings:" in lines
        assert "metrics:" in lines
        # The longest phase fills the bar; the shorter one is scaled.
        bars = [l for l in lines if "|" in l]
        assert "build_context |##########" in bars[0]
        assert "place         |#####" in bars[1]
        # Nested span is indented under its parent with attributes.
        assert "  build_context: 100.0ms  (events=2500)" in lines
        assert "    build_wcg: 40.0ms" in lines
        # Metrics table renders each kind.
        assert any(
            "cache.sim.misses" in l and "counter" in l and "2739" in l
            for l in lines
        )
        assert any(
            "gap.sizes" in l and "histogram" in l and "count=3" in l
            for l in lines
        )

    def test_phase_bars_fold_roots_by_name(self):
        """A run with many root spans of a few names draws one bar
        per name, durations summed, in first-seen order."""
        roots = [
            {"name": name, "start": 0.0, "duration": duration}
            for name, duration in [("place", 0.25), ("simulate", 0.5)] * 20
        ]
        roots.insert(1, {"name": "perturb", "start": 0.0, "duration": 1.0})
        text = format_manifest_report(
            {"command": "compare", "elapsed": 16.0, "timings": roots},
            width=10,
        )
        lines = text.splitlines()
        start = lines.index("phases:") + 1
        bars = lines[start : lines.index("", start)]
        assert bars == [
            "  place    |#####      5.00s",
            "  perturb  |#          1.00s",
            "  simulate |########## 10.00s",
        ]

    def test_empty_sections_are_omitted(self):
        text = format_manifest_report(
            {"command": "x", "elapsed": 0.0, "timings": [], "metrics": {}}
        )
        assert "phases:" not in text
        assert "metrics:" not in text
        assert "workers:" not in text

    def test_exception_terminated_span_is_flagged(self, manifest):
        """A phase that died mid-run renders with its error attached
        instead of masquerading as a completed phase."""
        manifest["timings"][0]["children"][0]["error"] = "TraceError"
        manifest["timings"][0]["error"] = "TraceError"
        text = format_manifest_report(manifest)
        flagged = [l for l in text.splitlines() if "[error: TraceError]" in l]
        assert len(flagged) == 2
        assert any("build_context" in line for line in flagged)
        assert any("build_wcg" in line for line in flagged)

    def test_real_aborted_run_reports_its_error(self, tmp_path):
        """End to end: a span body that raises still yields a manifest
        whose report shows the failed phase."""
        from repro import obs
        from repro.obs import RunSession, runtime

        previous = runtime.current()
        session = RunSession("r", with_git=False)
        try:
            with pytest.raises(ValueError):
                with obs.span("doomed"):
                    raise ValueError("boom")
            manifest = session.finish()
        finally:
            runtime.restore(previous)
        text = format_manifest_report(manifest)
        assert "doomed" in text
        assert "[error: ValueError]" in text

    def test_store_hit_rate_is_derived(self, manifest):
        manifest["metrics"]["store.hit"] = {"kind": "counter", "value": 3}
        manifest["metrics"]["store.miss"] = {"kind": "counter", "value": 1}
        text = format_manifest_report(manifest)
        assert "store.hit_rate: 75.0% (3 of 4 lookups)" in text

    def test_store_hit_rate_guards_zero_accesses(self, manifest):
        manifest["metrics"]["store.hit"] = {"kind": "counter", "value": 0}
        manifest["metrics"]["store.miss"] = {"kind": "counter", "value": 0}
        text = format_manifest_report(manifest)
        assert "store.hit_rate: n/a (no store accesses)" in text

    def test_no_hit_rate_line_without_store_counters(self, manifest):
        assert "store.hit_rate" not in format_manifest_report(manifest)

    def test_stage_table_is_largest_self_time_first(self, manifest):
        manifest["timings"][1]["attributes"] = {"algorithm": "GBSC"}
        lines = format_manifest_report(manifest).splitlines()
        start = lines.index("stages (self time):")
        assert lines[start + 1].split() == ["self", "total", "calls", "stage"]
        assert [line.split() for line in lines[start + 2:start + 5]] == [
            ["60.0ms", "100.0ms", "1", "build_context"],
            ["50.0ms", "50.0ms", "1", "place.GBSC"],
            ["40.0ms", "40.0ms", "1", "build_wcg"],
        ]


class TestReportCommand:
    def test_renders_run_file(self, tmp_path, capsys, manifest):
        run = tmp_path / "run.jsonl"
        span = {"type": "span", "name": "place", "depth": 0,
                "start": 0.1, "duration": 0.05}
        run.write_text(
            json.dumps(span) + "\n" + json.dumps(manifest) + "\n"
        )
        assert main(["report", str(run)]) == 0
        out = capsys.readouterr().out
        assert "run: place" in out
        assert "cache.sim.misses" in out

    def test_profile_key_of_an_older_run_file_is_ignored(
        self, tmp_path, capsys
    ):
        """Run files once carried a ``profile`` section; ``report`` and
        ``check`` still accept them and ignore it."""
        from repro import obs
        from repro.obs import RunSession

        run = tmp_path / "run.jsonl"
        session = RunSession("place", metrics_out=run, with_git=False)
        with obs.span("place"):
            pass
        manifest = session.finish()
        manifest["profile"] = {
            "clock": "monotonic",
            "functions": {
                "repro.core.gbsc.place": {"calls": 1, "cum": 0.5, "self": 0.2}
            },
        }
        lines = run.read_text().splitlines()
        lines[-1] = json.dumps(manifest)
        run.write_text("\n".join(lines) + "\n")
        assert main(["report", str(run)]) == 0
        out = capsys.readouterr().out
        assert "stages (self time):" in out
        assert "profile" not in out
        assert main(["check", str(run)]) == 0

    def test_manifest_less_file_exits_2(self, tmp_path, capsys):
        run = tmp_path / "run.jsonl"
        run.write_text('{"type": "span", "name": "a"}\n')
        assert main(["report", str(run)]) == 2
        assert "no run manifest" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err
