"""One workload in one fresh interpreter: set up, time, check, trace.

Started by ``python -m benchmarks.e2e run``; not meant to be run by
hand.  The child sets up :data:`SETUPS` times, runs repetitions of
fixed work for ``--seconds`` (at least :data:`MIN_REPS`), checks every
output, and with ``--trace 1`` runs one more set-up and repetition
under the tracer.  Throughput is that of the fastest repetition: the
host's interference only ever slows a repetition down.  The child
prints every metric by name and unit in its own row, writes
``OUT/<workload>.json`` (plus the spans and layer table when traced),
and prints the result object as its last line.  Exit status 1 means a
check failed.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Any

from benchmarks.e2e.checks import (
    Checks,
    layout_problems,
    load_expected,
    stats_problems,
    update_expected,
)
from benchmarks.e2e.spec import CHECKED, END_TO_END, PER_LAYER, WORKLOADS, WorkloadSpec
from benchmarks.e2e.tracing import Tracer, fold, subtree, write_spans
from benchmarks.e2e.workloads import (
    Inputs,
    RepOutput,
    cache_config,
    rep,
    seed_independent,
    setup,
)
from repro.cache.simulator import simulate
from repro.obs.clock import monotonic
from repro.obs.perf import host_fingerprint

#: Set-ups per run; ``setup_s`` reports their median.
SETUPS = 3

#: Timed repetitions per run, however short ``--seconds`` is.
MIN_REPS = 3

_UNITS = {e.name: e.unit for e in (*END_TO_END, *CHECKED, *PER_LAYER)}


def run_workload(
    spec: WorkloadSpec,
    seed: int,
    seconds: float,
    trace: bool,
    out: Path,
    import_s: float = 0.0,
    write_expected: bool = False,
) -> dict[str, Any]:
    """Run *spec* and write ``out/<name>.json``; returns its content."""
    out.mkdir(parents=True, exist_ok=True)
    work = out / f"{spec.name}.work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        result = _run(spec, seed, seconds, trace, out, work, import_s, write_expected)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (out / f"{spec.name}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def _run(
    spec: WorkloadSpec,
    seed: int,
    seconds: float,
    trace: bool,
    out: Path,
    work: Path,
    import_s: float,
    write_expected: bool,
) -> dict[str, Any]:
    setup_times = []
    for index in range(SETUPS):
        scratch = _fresh(work / f"setup-{index}")
        start = monotonic()
        inputs = setup(spec, scratch)
        setup_times.append(monotonic() - start)

    rep_times: list[float] = []
    work_done: list[tuple[int, int]] = []  # (cells, events) per rep
    fingerprints: list[dict[str, Any]] = []
    first: RepOutput | None = None
    start = monotonic()
    # Start another rep only if it should end within --seconds.
    while (
        len(rep_times) < MIN_REPS
        or monotonic() - start + statistics.median(rep_times) <= seconds
    ):
        scratch = _fresh(work / "rep")
        began = monotonic()
        output = rep(spec, inputs, seed, scratch)
        rep_times.append(monotonic() - began)
        # Keep one rep's layouts; the rest only as fingerprints, so
        # peak memory does not grow with the number of reps.
        if first is None:
            first = output
        work_done.append((output.cells, output.events))
        fingerprints.append(output.fingerprint())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checks = Checks()
    _check_outputs(spec, inputs, first, checks)
    for index, fingerprint in enumerate(fingerprints[1:], start=1):
        checks.expect(
            fingerprint == fingerprints[0], f"rep {index} output differs from rep 0"
        )
    if spec == WORKLOADS.get(spec.name):  # shrunk specs have no golden
        _check_golden(spec.name, seed, fingerprints[0], checks, write_expected)

    layers: dict[str, Any] = {}
    if trace:
        layers = _traced_pass(spec, seed, work, out, statistics.median(rep_times))
        checks.expect(
            layers.pop("fingerprint") == fingerprints[0],
            "traced rep output differs from the untraced reps",
        )

    cells = [c / t for (c, _), t in zip(work_done, rep_times)]
    events = [e / t for (_, e), t in zip(work_done, rep_times)]
    values = {
        "setup_s": import_s + statistics.median(setup_times),
        "cells_per_s": max(cells),
        "events_per_s": max(events),
        "peak_rss_mb": peak_rss_mb,
        "miss_rate": first.miss_rate,
        "error_rate": checks.failed / checks.attempted,
    }
    metrics = {name: _entry(name, value) for name, value in values.items()}
    metrics["cells_per_s"].update(_spread(cells))
    metrics["events_per_s"].update(_spread(events))
    for name, value in layers.get("metrics", {}).items():
        metrics[name] = _entry(name, value)
    return {
        "workload": spec.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "spec": asdict(spec),
        "host": host_fingerprint(),
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        "missing_spans": layers.get("missing_spans", []),
        "import_s": import_s,
        "setups_s": setup_times,
        "reps_s": rep_times,
        "metrics": metrics,
    }


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir()
    return path


def _check_golden(
    name: str,
    seed: int,
    fingerprint: dict[str, Any],
    checks: Checks,
    write_expected: bool,
) -> None:
    """At seed 0 every output must match ``expected.json``; at other
    seeds, the outputs no seed changes must."""
    if write_expected:
        update_expected(name, fingerprint)
        return
    expected = load_expected().get(name)
    checks.expect(expected is not None, "no expected.json entry")
    if expected is None:
        return
    if seed == 0:
        for field in sorted(expected):
            checks.expect(
                fingerprint.get(field) == expected[field],
                f"{field} differs from expected.json",
            )
    else:
        checks.expect(
            seed_independent(fingerprint) == seed_independent(expected),
            "clean-profile outputs differ from expected.json",
        )


def _check_outputs(
    spec: WorkloadSpec, inputs: Inputs, output: RepOutput, checks: Checks
) -> None:
    """Structural layout checks, and ``MissStats`` checks on every
    distinct layout (a sweep's are simulated again here, outside the
    timed region, and must reproduce the rates the sweep reported)."""
    config = cache_config(spec)
    for cell in output.placed:
        problems = layout_problems(
            cell.spans(),
            {name: cell.program.size_of(name) for name in cell.program.names},
            config.size,
        )
        checks.expect(not problems, f"{cell.algorithm} layout: {'; '.join(problems)}")
    if spec.kind == "cold":
        for stats in output.stats:
            problems = stats_problems(stats)
            checks.expect(not problems, f"default stats: {'; '.join(problems)}")
        return
    rate_of: dict[str, float] = {}
    rates: dict[str, list[float]] = {}
    for cell in output.placed:
        digest = cell.digest()
        if digest not in rate_of:
            stats = simulate(cell.layout, inputs.test, config)
            problems = stats_problems(stats)
            checks.expect(
                not problems, f"{cell.algorithm} stats: {'; '.join(problems)}"
            )
            rate_of[digest] = stats.miss_rate
        rates.setdefault(cell.algorithm, []).append(rate_of[digest])
    for algorithm, reported in output.results["miss_rates"].items():
        simulated = rates.get(algorithm, [])
        checks.expect(
            sorted(simulated[:-1]) == reported["perturbed"]
            and simulated[-1:] == [reported["clean"]],
            f"{algorithm}: sweep miss rates differ from its layouts' simulation",
        )


def _traced_pass(
    spec: WorkloadSpec, seed: int, work: Path, out: Path, untraced_s: float
) -> dict[str, Any]:
    """One set-up and one repetition under the tracer."""
    tracer = Tracer()
    with tracer.installed():
        with tracer.span("bench.setup"):
            inputs = setup(spec, _fresh(work / "traced-setup"), tracer)
        with tracer.span("bench.rep"):
            output = rep(spec, inputs, seed, _fresh(work / "traced-rep"), tracer)
    spans = tracer.spans
    roots = {span["name"]: span for span in spans if span["parent"] is None}
    rep_root = roots["bench.rep"]
    layers = fold(spans)
    metrics: dict[str, float] = {}
    for name, layer in layers.items():
        if name.startswith("bench."):
            continue
        for key, value in layer.items():
            if key != "total_s":
                metrics[f"{name}.{key}"] = value
    simulate_spans = [
        layer for name, layer in layers.items()
        if name.startswith("cache.simulate_stream.")
    ]
    simulate_s = sum(layer["self_s"] for layer in simulate_spans)
    simulate_lines = sum(layer.get("lines", 0) for layer in simulate_spans)
    gets = layers.get("store.get", {})
    metrics.update(
        {
            "cache.simulate_stream.self_s": simulate_s,
            "cache.simulate_stream.lines_per_s": (
                simulate_lines / simulate_s if simulate_s else 0.0
            ),
            "store.hit_ratio": (
                gets["hits"] / gets["calls"] if gets.get("calls") else 0.0
            ),
            "bench.unattributed_s": sum(
                layers[name]["self_s"] for name in ("bench.setup", "bench.rep")
            ),
            "bench.traced_rep_s": rep_root["end"] - rep_root["start"],
            "bench.spans": len(spans),
            "bench.trace_overhead": (
                (rep_root["end"] - rep_root["start"]) / untraced_s - 1
            ),
        }
    )
    for metric in PER_LAYER:  # a bypassed layer counts zero calls
        metrics.setdefault(metric.name, 0)
    write_spans(out / f"{spec.name}.spans.jsonl", spans)
    table = {
        "missing_spans": tracer.missing,
        "pass": layers,
        "setup": fold(subtree(spans, roots["bench.setup"]["id"])),
        "rep": fold(subtree(spans, rep_root["id"])),
        "metrics": metrics,
    }
    (out / f"{spec.name}.layers.json").write_text(json.dumps(table, indent=1) + "\n")
    return {
        "metrics": metrics,
        "missing_spans": tracer.missing,
        "fingerprint": output.fingerprint(),
    }


def _entry(name: str, value: float) -> dict[str, Any]:
    return {"value": value, "unit": _UNITS.get(name) or _layer_unit(name)}


def _layer_unit(name: str) -> str:
    quantity = name.rsplit(".", 1)[-1]
    if quantity.endswith("_s"):
        return "s"
    return {"bytes": "bytes", "trace_overhead": "ratio"}.get(quantity, "count")


def _spread(values: list[float]) -> dict[str, Any]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def print_result(result: dict[str, Any]) -> None:
    """One row per metric, then the result object as the last line."""
    name = result["workload"]
    for failure in result["failures"]:
        print(f"{name:<13} FAILED {failure}")
    for target in result["missing_spans"]:
        print(f"{name:<13} missing span {target}")
    for metric, entry in result["metrics"].items():
        spread = ""
        if "n" in entry:
            spread = (
                f"  (best rep; median {entry['median']:.6g}, q1 {entry['q1']:.6g},"
                f" q3 {entry['q3']:.6g}, n {entry['n']})"
            )
        print(
            f"{name:<13} {metric:<42} {entry['value']:>14.6g} {entry['unit']}{spread}"
        )
    chosen = PER_LAYER if result["trace"] else END_TO_END
    summary = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric.name: {
                "value": result["metrics"][metric.name]["value"],
                "unit": metric.unit,
            }
            for metric in chosen
        },
    }
    print(json.dumps(summary), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.child")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--update-expected", action="store_true")
    args = parser.parse_args(argv)
    import_s = monotonic() - args.spawned_at
    result = run_workload(
        WORKLOADS[args.workload],
        args.seed,
        args.seconds,
        bool(args.trace),
        args.out,
        import_s=import_s,
        write_expected=args.update_expected,
    )
    print_result(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
