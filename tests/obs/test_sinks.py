"""JSONL sinks, run sessions and manifest round-trips."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import obs
from repro.analysis import audit_manifest, audit_run_path
from repro.errors import ObservabilityError
from repro.obs import (
    MANIFEST_FORMAT,
    MANIFEST_VERSION,
    JsonlSink,
    RunSession,
    cut_torn_tail,
    load_run_manifest,
    read_jsonl,
    runtime,
)

JSON_OBJECTS = st.dictionaries(
    st.text(max_size=4),
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.text(max_size=8)
    ),
    max_size=3,
)


class TestReadJsonl:
    @given(
        records=st.lists(JSON_OBJECTS, max_size=6),
        extra=JSON_OBJECTS,
        data=st.data(),
    )
    def test_cut_anywhere_then_append(self, records, extra, data):
        """Cut a clean file at any byte: the reader returns exactly the
        records whose whole line precedes the cut, never a defect, and
        flags a torn tail exactly when the cut falls inside a line.
        After the tail cut, one append reads back cleanly."""
        lines = [
            (json.dumps(r, ensure_ascii=False) + "\n").encode("utf-8")
            for r in records
        ]
        blob = b"".join(lines)
        cut = data.draw(st.integers(0, len(blob)), label="cut")
        ends = [sum(map(len, lines[: i + 1])) for i in range(len(lines))]
        whole = [
            (i + 1, record)
            for i, record in enumerate(records)
            if ends[i] <= cut
        ]
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "records.jsonl"
            path.write_bytes(blob[:cut])
            read = read_jsonl(path)
            assert read.records == whole
            assert read.defects == []
            assert read.torn == (cut not in [0, *ends])
            cut_torn_tail(path)
            with path.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(extra) + "\n")
            read = read_jsonl(path)
            assert [r for _, r in read.records] == [
                r for _, r in whole
            ] + [extra]
            assert read.defects == []
            assert not read.torn

    def test_defects_carry_line_numbers(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_bytes(b'{"a": 1}\n\n[1]\n{bad\n\xff\n{"b": 2}\n')
        read = read_jsonl(path)
        assert read.records == [(1, {"a": 1}), (6, {"b": 2})]
        assert [number for number, _ in read.defects] == [3, 4, 5]
        assert not read.torn

    def test_last_line_torn_counts_a_final_defect_as_torn(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"a": 1}\n{bad\n')
        read = read_jsonl(path).last_line_torn()
        assert read.records == [(1, {"a": 1})]
        assert read.defects == []
        assert read.torn
        path.write_text('{bad\n{"a": 1}\n')
        assert read_jsonl(path).last_line_torn().defects == [
            (1, "not valid JSON: Expecting property name enclosed in "
                "double quotes")
        ]

    def test_cut_torn_tail_ignores_a_missing_file(self, tmp_path):
        cut_torn_tail(tmp_path / "absent.jsonl")
        assert not (tmp_path / "absent.jsonl").exists()



class TestJsonlSink:
    def test_lazy_open_leaves_no_file_without_events(self, tmp_path):
        path = tmp_path / "sub" / "run.jsonl"
        sink = JsonlSink(path)
        sink.close()
        assert not path.exists()

    def test_round_trip(self, tmp_path):
        path = tmp_path / "sub" / "run.jsonl"
        sink = JsonlSink(path)
        sink.emit({"type": "span", "name": "a"})
        sink.emit({"type": "span", "name": "b"})
        sink.close()
        lines = path.read_text().splitlines()
        assert [json.loads(line)["name"] for line in lines] == ["a", "b"]

    def test_emit_after_close_raises(self, tmp_path):
        sink = JsonlSink(tmp_path / "run.jsonl")
        sink.close()
        with pytest.raises(ObservabilityError):
            sink.emit({"type": "span"})


class TestRunSession:
    def test_writes_span_events_then_manifest(self, tmp_path):
        out = tmp_path / "run.jsonl"
        session = RunSession(
            "test-run", config={"k": 1}, metrics_out=out, with_git=False
        )
        with obs.span("phase", attr="x"):
            obs.inc("events", 3)
        manifest = session.finish()
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert [line["type"] for line in lines] == ["span", "manifest"]
        assert lines[0]["name"] == "phase"
        assert lines[0]["attributes"] == {"attr": "x"}
        assert manifest["format"] == MANIFEST_FORMAT
        assert manifest["version"] == MANIFEST_VERSION
        assert manifest["command"] == "test-run"
        assert manifest["config"] == {"k": 1}
        assert manifest["metrics"]["events"]["value"] == 3
        assert load_run_manifest(out) == lines[-1]

    def test_finish_is_idempotent(self, tmp_path):
        session = RunSession("r", with_git=False)
        first = session.finish()
        assert session.finish() is first

    def test_restores_previous_state(self):
        outer = runtime.enable()
        session = RunSession("inner", with_git=False)
        assert runtime.current() is session.state
        assert runtime.current() is not outer
        session.finish()
        assert runtime.current() is outer

    def test_trace_out_gets_spans_but_no_manifest(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        with RunSession("r", trace_out=out, with_git=False):
            with obs.span("phase"):
                pass
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert [line["type"] for line in lines] == ["span"]

    def test_verbose_narration_names_batch_tasks(self, capsys):
        with RunSession("r", verbose=True, with_git=False):
            with obs.span("runner.batch"):
                with obs.span("runner.task", key="row:gcc", kind="row"):
                    with obs.span("build_context"):
                        pass
        lines = capsys.readouterr().err.splitlines()
        assert [line.rsplit(":", 1)[0] for line in lines] == [
            "[obs]   runner.task row:gcc",
            "[obs] runner.batch",
        ]

    def test_manifest_from_real_run_audits_clean(self, tmp_path, gbsc_run):
        out = tmp_path / "run.jsonl"
        manifest = gbsc_run(out)
        assert audit_manifest(manifest) == []
        assert audit_run_path(out) == []

    def test_miss_counters_reconcile_with_cache_stats(
        self, tmp_path, gbsc_run
    ):
        manifest = gbsc_run(tmp_path / "run.jsonl")
        metrics = manifest["metrics"]
        accesses = metrics["cache.sim.accesses"]["value"]
        misses = metrics["cache.sim.misses"]["value"]
        hits = metrics["cache.sim.hits"]["value"]
        assert misses + hits == accesses
        assert misses <= accesses

    def test_timing_tree_covers_the_pipeline_phases(
        self, tmp_path, gbsc_run
    ):
        manifest = gbsc_run(tmp_path / "run.jsonl")

        def names(nodes):
            for node in nodes:
                yield node["name"]
                yield from names(node.get("children") or [])

        spans = set(names(manifest["timings"]))
        assert {
            "gen_trace",
            "build_context",
            "build_trgs",
            "place",
            "gbsc_merge",
            "linearize",
            "simulate",
        } <= spans


@pytest.fixture
def gbsc_run(tmp_path):
    """Run a small end-to-end GBSC pipeline under a RunSession and
    return the manifest."""

    def run(out):
        from repro.cache.config import CacheConfig
        from repro.cache.simulator import simulate
        from repro.core.gbsc import GBSCPlacement
        from repro.eval.experiment import build_context
        from repro.workloads.spec import clear_trace_memo
        from repro.workloads.suite import by_name

        # Traces are memoised module-wide; force regeneration so the
        # gen_trace span lands inside this session's timing tree.
        clear_trace_memo()
        workload = by_name("m88ksim").scaled(0.02)
        config = CacheConfig(size=8192, line_size=32)
        session = RunSession("gbsc-test", metrics_out=out, with_git=False)
        try:
            train = workload.trace("train")
            context = build_context(train, config)
            with obs.span("place", algorithm="GBSC"):
                layout = GBSCPlacement().place(context)
            simulate(layout, train, config)
        finally:
            manifest = session.finish()
        return manifest

    return run
