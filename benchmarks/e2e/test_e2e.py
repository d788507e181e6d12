"""Tests of the end-to-end benchmark: ``pytest benchmarks/e2e``."""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

import repro.core.gbsc
from benchmarks.e2e.checks import layout_problems
from benchmarks.e2e.child import run_workload
from benchmarks.e2e.compare import verdict
from benchmarks.e2e.spec import END_TO_END, PER_LAYER, WORKLOADS, Metric
from benchmarks.e2e.tracing import PatchPoint, Tracer, fold, subtree
from benchmarks.e2e.workloads import rep, setup

ROOT = Path(__file__).resolve().parents[2]


def small(name: str):
    """The workload at a scale that runs in a second or two."""
    return replace(WORKLOADS[name], scale=0.02)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_is_correct_and_reports_every_metric(name, tmp_path):
    result = run_workload(small(name), seed=7, seconds=0, trace=True, out=tmp_path)
    assert result["failures"] == []
    assert result["correct"] and result["attempted"] > 0
    assert result["missing_spans"] == []
    for metric in (*END_TO_END, *PER_LAYER):
        assert metric.name in result["metrics"], metric.name
    assert result["metrics"]["cells_per_s"]["value"] > 0
    for suffix in (".json", ".spans.jsonl", ".layers.json"):
        assert (tmp_path / f"{name}{suffix}").is_file()
    assert not (tmp_path / f"{name}.work").exists()


def test_traced_and_untraced_reps_give_identical_layouts(tmp_path):
    spec = small("fig5-gcc")
    inputs = setup(spec, tmp_path)
    plain = rep(spec, inputs, 3, tmp_path)
    original = repro.core.gbsc.merge_nodes
    tracer = Tracer()
    with tracer.installed():
        assert repro.core.gbsc.merge_nodes is not original
        traced = rep(spec, inputs, 3, tmp_path, tracer)
    assert repro.core.gbsc.merge_nodes is original
    assert [sorted(c.layout.items()) for c in traced.placed] == [
        sorted(c.layout.items()) for c in plain.placed
    ]
    assert traced.fingerprint() == plain.fingerprint()
    merges = [span for span in tracer.spans if span["name"] == "core.merge_nodes"]
    cells = {span["cell"] for span in merges}
    assert None not in cells and len(cells) == spec.runs + 1  # GBSC cells only


def _span(ident, parent, name, start, end, **attrs):
    return {
        "id": ident, "parent": parent, "cell": None, "name": name,
        "start": start, "end": end, "attrs": attrs,
    }


def test_fold_subtracts_child_time_from_self_time():
    spans = [
        _span(0, None, "root", 0.0, 10.0),
        _span(1, 0, "a", 1.0, 4.0),
        _span(2, 1, "b", 2.0, 3.0, lines=5),
        _span(3, 0, "a", 5.0, 9.0),
        _span(4, 3, "b", 5.5, 6.0, lines=7),
        _span(5, None, "other", 20.0, 21.0),
    ]
    layers = fold(spans)
    assert layers["root"]["self_s"] == pytest.approx(3.0)
    assert layers["a"]["self_s"] == pytest.approx(2.0 + 3.5)
    assert layers["a"]["total_s"] == pytest.approx(7.0)
    assert layers["a"]["calls"] == 2
    assert layers["b"]["self_s"] == pytest.approx(1.5)
    assert layers["b"]["lines"] == 12
    assert sum(layer["self_s"] for layer in layers.values()) == pytest.approx(11.0)
    assert [span["id"] for span in subtree(spans, 1)] == [1, 2]


def test_tracer_records_parents_and_lists_missing_targets():
    tracer = Tracer(
        points=(
            PatchPoint("repro.core.gbsc:no_such_function", "x"),
            PatchPoint("no_such_module:f", "y"),
        )
    )
    with tracer.installed():
        with tracer.span("outer"):
            tracer.next_cell()
            with tracer.span("inner") as attrs:
                attrs["lines"] = 3
    assert tracer.missing == ["repro.core.gbsc:no_such_function", "no_such_module:f"]
    outer, inner = tracer.spans
    assert outer["parent"] is None and outer["cell"] is None
    assert inner["parent"] == outer["id"] and inner["cell"] == 0
    assert inner["attrs"] == {"lines": 3}
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


SIZES = {"a": 100, "b": 50, "c": 30}


def problems(*spans):
    return layout_problems(spans, SIZES, 8192)


def test_checker_accepts_a_valid_layout():
    assert problems(("a", 0, 100), ("b", 100, 150), ("c", 200, 230)) == []


def test_checker_rejects_overlap_missing_duplicates_and_wide_gaps():
    overlap = problems(("a", 0, 100), ("b", 90, 140), ("c", 140, 170))
    assert any("overlap" in problem for problem in overlap)
    missing = problems(("a", 0, 100), ("b", 100, 150))
    assert any("unplaced" in problem for problem in missing)
    twice = problems(("a", 0, 100), ("b", 100, 150), ("c", 150, 180), ("c", 180, 210))
    assert any("placed 2 times" in problem for problem in twice)
    gap = problems(("a", 0, 100), ("b", 100, 150), ("c", 9000, 9030))
    assert any("gap" in problem for problem in gap)
    resized = problems(("a", 0, 90), ("b", 100, 150), ("c", 150, 180))
    assert any("occupies 90 bytes" in problem for problem in resized)


def test_compare_verdicts():
    higher = Metric("x", "1/s", "higher", 0.1)
    base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0]
    assert verdict(higher, base, base) == "within bound"
    assert verdict(higher, base, [v * 1.2 for v in base]) == "better"
    assert verdict(higher, base, [v * 0.8 for v in base]) == "worse"
    noisy = [5.0, 15.0, 5.0, 15.0, 10.0, 5.0, 15.0, 10.0, 5.0, 15.0]
    assert verdict(higher, noisy, noisy) == "unresolved"
    exact = Metric("m", "ratio", "lower", 0.0)
    rates = [0.03, 0.025, 0.031]
    assert verdict(exact, rates, list(rates)) == "identical"
    assert verdict(exact, rates, [0.03, 0.024, 0.031]) == "better"
    assert verdict(exact, rates, [0.03, 0.024, 0.032]) == "worse"


def test_benchmark_json_mirrors_the_spec():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert benchmark["paths"] == ["benchmarks/e2e"]
    assert {w["name"]: w["why"] for w in benchmark["workloads"]} == {
        name: spec.why for name, spec in WORKLOADS.items()
    }
    assert benchmark["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert benchmark["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
