"""Command-line interface: run the paper's experiments from a shell.

Experiment commands::

    repro-layout list
    repro-layout compare perl --runs 8
    repro-layout table1 --fast
    repro-layout correlate go --layouts 20

File-based workflow (profile once, place many times)::

    repro-layout gen-trace m88ksim --which train -o train.npz
    repro-layout gen-trace m88ksim --which test -o test.npz
    repro-layout place train.npz --algorithm gbsc -o layout.json
    repro-layout simulate layout.json test.npz

Observability (:mod:`repro.obs`): experiment and file-workflow
commands accept ``--metrics-out RUN.jsonl`` (span events + end-of-run
manifest), ``--trace-out`` (span events only) and ``-v`` (phase
narration on stderr)::

    repro-layout place train.npz -o layout.json --metrics-out run.jsonl
    repro-layout report run.jsonl       # timings, stage self times, metrics

The perf lab (:mod:`repro.obs.perf`) makes runs comparable::

    repro-layout perf diff A.jsonl B.jsonl      # structural manifest diff
    repro-layout perf record table1:fast --from-json BENCH.json
    repro-layout perf check                     # gate vs baselines.json

Static verification (:mod:`repro.analysis`)::

    repro-layout check layout.json      # audit saved artifacts
    repro-layout check run.jsonl        # audit a run manifest
    repro-layout check ckpt/            # audit a checkpoint directory
    repro-layout lint                   # determinism-lint the sources

Fault-tolerant batches (:mod:`repro.runner`): ``compare`` and
``table1`` always run as a task grid; ``--checkpoint DIR`` runs it
through the batch runner — every grid cell is journaled and its
artifact written atomically, so an interrupted run (Ctrl-C, crash,
kill) resumes with ``--resume`` and reproduces the uninterrupted
report byte for byte::

    repro-layout compare perl --runs 40 --checkpoint ckpt
    ^C  ->  interrupted — resume with --resume
    repro-layout compare perl --runs 40 --checkpoint ckpt --resume

``--max-failures N`` aborts a degrading batch early;
``--inject PLAN.json`` runs under a deterministic fault-injection
plan (CI and tests).  All three runner flags need ``--checkpoint``.

Artifact caching (:mod:`repro.store`): ``compare``, ``table1``,
``gen-trace`` and ``place`` accept ``--cache DIR`` — traces and
profile graphs are stored content-addressed in DIR and reused by
later runs (``--no-cache`` forces a cold run; results are
byte-identical either way).  ``repro-layout cache {stats,gc,verify}``
maintains a store::

    repro-layout table1 --fast --cache ~/.cache/repro-layout
    repro-layout cache stats ~/.cache/repro-layout
    repro-layout cache gc ~/.cache/repro-layout --max-bytes 100000000

Exit codes: 0 success / clean, 1 findings reported by ``check``,
``lint`` or ``cache verify`` **or** a degraded batch (structured task
failures), 2 a :class:`~repro.errors.ReproError` (bad input,
unreadable artifact, invalid configuration), 130 interrupted
(a checkpoint journal is flushed; re-run with ``--resume``), 137 a
simulated kill from the fault harness.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro import obs, service
from repro.cache.config import PAPER_CACHE, CacheConfig
from repro.cache.simulator import simulate
from repro.core.gbsc import GBSCPlacement
from repro.errors import ReproError
from repro.eval.experiment import build_context
from repro.eval.metrics import (
    damage_layout,
    pearson_r,
    trg_conflict_metric,
    wcg_conflict_metric,
)
from repro.eval.reporting import format_scatter
from repro.workloads.suite import SUITE, by_name


def _cache_from_args(args: argparse.Namespace) -> CacheConfig:
    return CacheConfig(
        size=args.cache_size,
        line_size=args.line_size,
        associativity=args.associativity,
    )


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-size", type=int, default=PAPER_CACHE.size,
        help="cache capacity in bytes (default: paper's 8192)",
    )
    parser.add_argument(
        "--line-size", type=int, default=PAPER_CACHE.line_size,
        help="cache line size in bytes (default: 32)",
    )
    parser.add_argument(
        "--associativity", type=int, default=1,
        help="cache associativity (default: 1, direct-mapped)",
    )


def _add_store_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache", default=None, metavar="DIR",
        help="persistent content-addressed artifact cache: traces and "
        "profile graphs are stored in DIR and reused by later runs "
        "(results are byte-identical with the cache hot, cold or "
        "disabled)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore --cache for this invocation",
    )


def _store_from_args(args: argparse.Namespace):
    """The shared :class:`~repro.store.ArtifactStore`, or None.

    ``--no-cache`` wins over ``--cache`` so scripts can export a
    default cache location and still force a cold run.
    """
    if getattr(args, "no_cache", False):
        return None
    directory = getattr(args, "cache", None)
    if not directory:
        return None
    from repro.store import ArtifactStore

    return ArtifactStore(directory)


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write a JSONL run file (span events + final manifest)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write span events only (no manifest) as JSONL",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="narrate pipeline phases and timings on stderr",
    )


def _add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--checkpoint", default=None, metavar="DIR",
        help="journal every grid task into DIR through the "
        "fault-tolerant batch runner (enables --resume, --inject "
        "and --max-failures)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="skip tasks already completed in the --checkpoint journal",
    )
    parser.add_argument(
        "--max-failures", type=int, default=None, metavar="N",
        help="abort the batch once more than N tasks have failed "
        "(default: keep going, finish degraded)",
    )
    parser.add_argument(
        "--inject", default=None, metavar="PLAN",
        help="run under a repro/faultplan JSON injection plan "
        "(testing/CI)",
    )


def _run_batch(args: argparse.Namespace, batch, store=None) -> int:
    """Execute a batch through :func:`repro.service.execute_batch`."""
    from repro.chaos.plan import load_plan

    service.check_runner_flags(
        args.checkpoint or None,
        resume=args.resume,
        plan=args.inject,
        max_failures=args.max_failures,
    )
    plan = load_plan(args.inject) if args.inject else None
    outcome = service.execute_batch(
        batch,
        args.checkpoint or None,
        resume=args.resume,
        max_failures=args.max_failures,
        plan=plan,
        echo=lambda line: print(line, file=sys.stderr),
        store=store,
    )
    print(outcome.report)
    if not outcome.ok:
        print(
            f"batch degraded: {len(outcome.failures)} failed, "
            f"{len(outcome.pending)} not attempted "
            f"({outcome.executed} executed, {outcome.cached} from "
            "checkpoint)",
            file=sys.stderr,
        )
    return outcome.exit_code


def _obs_session(
    args: argparse.Namespace, command: str
) -> obs.RunSession:
    """An observability session echoing the parsed arguments."""
    config = {
        key: value
        for key, value in vars(args).items()
        if key != "func" and isinstance(value, (str, int, float, bool))
    }
    return obs.RunSession(
        command=command,
        config=config,
        metrics_out=getattr(args, "metrics_out", None),
        trace_out=getattr(args, "trace_out", None),
        verbose=getattr(args, "verbose", False),
    )


def _summary_line(command: str, manifest: dict) -> str:
    """One-line success summary sourced from the metric snapshot.

    It holds no wall time, so two runs on the same inputs print the
    same line: :func:`_print_summary` puts the time on stderr.
    """
    metrics = manifest["metrics"]

    def value_of(name: str):
        entry = metrics.get(name)
        return entry.get("value") if entry else None

    parts = []
    procedures = value_of("place.procedures")
    if procedures is not None:
        parts.append(f"{procedures} procedures placed")
    miss_rate = value_of("cache.sim.last_miss_rate")
    if miss_rate is not None:
        parts.append(f"miss rate {miss_rate:.4%}")
    return f"{command} ok: {', '.join(parts)}" if parts else f"{command} ok"


def _print_summary(command: str, manifest: dict) -> None:
    """The summary line on stdout and the elapsed time on stderr."""
    print(_summary_line(command, manifest))
    elapsed = obs.format_duration(manifest["elapsed"])
    print(f"{command} elapsed {elapsed}", file=sys.stderr)


def _workload(args: argparse.Namespace):
    workload = by_name(args.workload)
    if args.fast:
        workload = workload.scaled(0.25)
    return workload


def cmd_list(_: argparse.Namespace) -> int:
    for workload in SUITE:
        program = workload.program
        print(
            f"{workload.name:<12} {len(program):>5} procedures, "
            f"{program.total_size:>8} bytes  -- {workload.description}"
        )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    with _obs_session(args, "compare"):
        workload = _workload(args)
        config = _cache_from_args(args)
        store = _store_from_args(args)
        request = service.CompareRequest(
            workload=workload,
            config=config,
            runs=args.runs,
            fast=args.fast,
            store=store,
        )
        return _run_batch(args, service.build_compare_batch(request), store)


def cmd_table1(args: argparse.Namespace) -> int:
    with _obs_session(args, "table1"):
        config = _cache_from_args(args)
        store = _store_from_args(args)
        request = service.Table1Request(
            config=config, fast=args.fast, store=store
        )
        return _run_batch(args, service.build_table1_batch(request), store)


def cmd_correlate(args: argparse.Namespace) -> int:
    workload = _workload(args)
    config = _cache_from_args(args)
    train = workload.trace("train")
    test = workload.trace("test")
    context = build_context(train, config)
    base = GBSCPlacement().place(context)
    assert context.trgs is not None
    miss_rates: list[float] = []
    trg_metrics: list[float] = []
    wcg_metrics: list[float] = []
    for index in range(args.layouts):
        layout = damage_layout(
            base, context.popular, seed=index, config=config
        )
        stats = simulate(layout, test, config)
        miss_rates.append(stats.miss_rate)
        trg_metrics.append(
            trg_conflict_metric(
                layout, context.trgs.place, config, context.trgs.chunk_size
            )
        )
        wcg_metrics.append(wcg_conflict_metric(layout, context.wcg, config))
    print(
        format_scatter(
            "TRG metric", list(zip(miss_rates, trg_metrics)),
            pearson_r(miss_rates, trg_metrics),
        )
    )
    print(
        format_scatter(
            "WCG metric", list(zip(miss_rates, wcg_metrics)),
            pearson_r(miss_rates, wcg_metrics),
        )
    )
    return 0


def cmd_gen_trace(args: argparse.Namespace) -> int:
    from repro.io import save_trace

    with _obs_session(args, "gen-trace"):
        if args.spec:
            from repro.workloads.custom import load_workload

            workload = load_workload(args.spec)
        else:
            workload = by_name(args.workload)
        if args.scale != 1.0:
            workload = workload.scaled(args.scale)
        trace = workload.trace(args.which, store=_store_from_args(args))
        save_trace(trace, args.output)
        print(
            f"wrote {args.which} trace of {workload.name}: {len(trace)} "
            f"events -> {args.output}"
        )
    return 0


def cmd_place(args: argparse.Namespace) -> int:
    from repro.io import save_layout

    session = _obs_session(args, "place")
    try:
        result = service.run_placement(
            service.PlacementRequest(
                trace_path=args.trace,
                algorithm=args.algorithm,
                config=_cache_from_args(args),
                store=_store_from_args(args),
            )
        )
        save_layout(result.layout, args.output)
        print(
            f"{result.algorithm} layout: text size "
            f"{result.layout.text_size} bytes, "
            f"training miss rate {result.train_stats.miss_rate:.4%} "
            f"-> {args.output}"
        )
    finally:
        manifest = session.finish()
    _print_summary("place", manifest)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import (
        LockedStore,
        PlacementService,
        make_server,
        write_service_manifest,
    )

    store = LockedStore(args.cache)
    app = PlacementService(store, default_deadline=args.deadline)
    server = make_server(
        args.host,
        args.port,
        app,
        echo=(
            (lambda line: print(line, file=sys.stderr))
            if args.verbose
            else None
        ),
    )
    host, port = server.server_address[:2]
    print(
        f"serving placement API on http://{host}:{port} "
        f"(store: {args.cache})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.server_close()
        if args.metrics_out:
            manifest = write_service_manifest(
                app,
                metrics_out=args.metrics_out,
                config={
                    "host": args.host,
                    "port": args.port,
                    "cache": args.cache,
                },
            )
            _print_summary("serve", manifest)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.io import load_layout, load_trace

    session = _obs_session(args, "simulate")
    try:
        layout = load_layout(args.layout)
        trace = load_trace(args.trace)
        config = _cache_from_args(args)
        stats = simulate(layout, trace, config)
        print(
            f"{stats.misses} misses / {stats.fetches} fetches "
            f"(miss rate {stats.miss_rate:.4%})"
        )
    finally:
        manifest = session.finish()
    _print_summary("simulate", manifest)
    return 0


def cmd_visualize(args: argparse.Namespace) -> int:
    from repro.eval.visualize import cache_occupancy_map, layout_table
    from repro.io import load_layout

    layout = load_layout(args.layout)
    config = _cache_from_args(args)
    print(layout_table(layout, config, limit=args.limit))
    print()
    print("cache occupancy (all procedures):")
    print(cache_occupancy_map(layout, config, width=args.width))
    return 0


def cmd_memory(args: argparse.Namespace) -> int:
    from repro.eval.memory import page_stats, reuse_distance_histogram
    from repro.io import load_layout, load_trace

    layout = load_layout(args.layout)
    trace = load_trace(args.trace)
    config = _cache_from_args(args)
    # Page statistics first: they reject a trace of another program
    # before anything is printed.
    pages = {
        resident: page_stats(
            layout, trace, page_size=args.page_size,
            resident_pages=resident,
        )
        for resident in (8, 32, 128)
    }
    histogram = reuse_distance_histogram(trace, bucket=config.size)
    total = sum(c for k, c in histogram.items() if k >= 0)
    print("reuse distances (bucket = one cache size):")
    for key in sorted(k for k in histogram if k >= 0)[:10]:
        share = histogram[key] / total if total else 0.0
        print(f"  bucket {key:>3}: {histogram[key]:>8} ({share:.1%})")
    for resident, stats in pages.items():
        print(
            f"pages: resident={resident:>4} -> {stats.page_faults} "
            f"faults over {stats.pages_touched} pages"
        )
    return 0


#: Default lint targets, resolved relative to the working directory.
_DEFAULT_LINT_PATHS = ("src/repro", "benchmarks")


def cmd_check(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.analysis import (
        audit_graph,
        audit_layout_payload,
        audit_manifest,
        audit_run_path,
        format_findings,
    )
    from repro.errors import AnalysisError
    from repro.io import SerializationError, graph_from_dict

    config = _cache_from_args(args)
    total = 0
    for artifact in args.artifacts:
        path = Path(artifact)
        if path.is_dir() or path.suffix == ".jsonl":
            findings = audit_run_path(path)
            if findings:
                print(f"{artifact}:")
                for line in format_findings(findings).splitlines():
                    print(f"  {line}")
            else:
                print(f"{artifact}: no findings")
            total += len(findings)
            continue
        try:
            data = json.loads(path.read_text())
        except (
            OSError,
            UnicodeDecodeError,
            json.JSONDecodeError,
        ) as error:
            raise SerializationError(
                f"cannot read {artifact}: {error}"
            ) from error
        if not isinstance(data, dict):
            raise AnalysisError(
                f"{artifact}: not a repro artifact (expected an object)"
            )
        kind = data.get("format")
        if kind == "repro/layout":
            findings = audit_layout_payload(data, config)
        elif kind == "repro/graph":
            findings = audit_graph(graph_from_dict(data))
        elif kind == "repro/manifest":
            findings = audit_manifest(data, file=artifact)
        else:
            raise AnalysisError(
                f"{artifact}: cannot audit artifacts of format {kind!r}"
            )
        if findings:
            print(f"{artifact}:")
            for line in format_findings(findings).splitlines():
                print(f"  {line}")
        else:
            print(f"{artifact}: no findings")
        total += len(findings)
    return 1 if total else 0


def _format_bytes(count: int) -> str:
    """Human-readable byte count (binary units, one decimal)."""
    value = float(count)
    for unit in ("bytes", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            if unit == "bytes":
                return f"{int(value)} {unit}"
            return f"{value:.1f} {unit}"
        value /= 1024
    return f"{int(count)} bytes"


def _open_store(directory: str):
    """Open an existing store directory for maintenance commands."""
    from pathlib import Path

    from repro.errors import StoreError
    from repro.store import ArtifactStore

    if not Path(directory).is_dir():
        raise StoreError(f"no artifact store directory at {directory}")
    return ArtifactStore(directory)


def cmd_cache_stats(args: argparse.Namespace) -> int:
    store = _open_store(args.dir)
    summary = store.stats()
    print(
        f"store {summary['root']}: {summary['entries']} artifact(s), "
        f"{_format_bytes(summary['bytes'])}"
    )
    for kind, bucket in summary["kinds"].items():
        print(
            f"  {kind:<8} {bucket['entries']:>4} entr"
            f"{'y' if bucket['entries'] == 1 else 'ies'}  "
            f"{_format_bytes(bucket['bytes'])}"
        )
    hit_rate = summary["hit_rate"]
    print(
        f"  session: {summary['hits']} hit(s), {summary['misses']} "
        f"miss(es), hit rate "
        f"{'n/a (no accesses)' if hit_rate is None else f'{hit_rate:.1%}'}"
    )
    if summary["quarantined"]:
        print(
            f"  quarantine: {summary['quarantined']} blob(s) held "
            "after repeated digest failures (cache gc purges)"
        )
    return 0


def cmd_cache_gc(args: argparse.Namespace) -> int:
    store = _open_store(args.dir)
    summary = store.gc(max_bytes=args.max_bytes)
    print(
        f"gc {args.dir}: removed {summary['removed_entries']} index "
        f"entr{'y' if summary['removed_entries'] == 1 else 'ies'} and "
        f"{summary['removed_blobs']} blob file(s), freed "
        f"{_format_bytes(summary['freed_bytes'])}; kept "
        f"{summary['kept_entries']} entr"
        f"{'y' if summary['kept_entries'] == 1 else 'ies'} "
        f"({_format_bytes(summary['kept_bytes'])})"
    )
    extras = []
    if summary["tmp_swept"]:
        extras.append(f"{summary['tmp_swept']} stale temp file(s)")
    if summary["quarantined_removed"]:
        extras.append(
            f"{summary['quarantined_removed']} quarantined blob(s)"
        )
    if extras:
        print(f"  also swept {' and '.join(extras)}")
    return 0


def cmd_cache_verify(args: argparse.Namespace) -> int:
    from repro.analysis import audit_store, format_findings

    findings = audit_store(args.dir)
    if findings:
        print(format_findings(findings))
        return 1
    print(f"{args.dir}: no findings")
    return 0


def cmd_chaos_sites(_: argparse.Namespace) -> int:
    from repro.chaos import ERROR_KINDS, POINTS, TASK_SITES, WRITE_SITES

    print("registered sites:")
    registered = {**WRITE_SITES, **TASK_SITES}
    for site in sorted(registered):
        print(f"  {site:<16} {registered[site]}")
    print(f"points: {', '.join(POINTS)}")
    print(f"injectable error kinds: {', '.join(ERROR_KINDS)}")
    return 0


def cmd_chaos_run(args: argparse.Namespace) -> int:
    from repro.chaos.campaign import run_campaign, write_findings

    config = _cache_from_args(args)
    if args.target == "compare":
        workload = _workload(args)

        def batch_factory(store):
            return service.build_compare_batch(
                service.CompareRequest(
                    workload=workload,
                    config=config,
                    runs=args.runs,
                    fast=args.fast,
                    store=store,
                )
            )

    else:

        def batch_factory(store):
            return service.build_table1_batch(
                service.Table1Request(
                    config=config, fast=args.fast, store=store
                )
            )

    errors = None
    if args.errors:
        errors = tuple(
            kind.strip() for kind in args.errors.split(",") if kind.strip()
        )
    kwargs = {"errors": errors} if errors else {}
    result = run_campaign(
        batch_factory,
        args.dir,
        command=args.target,
        points=args.points,
        seed=args.seed,
        echo=lambda line: print(line, file=sys.stderr),
        keep=args.keep,
        **kwargs,
    )
    if args.out:
        write_findings(result, args.out)
    print(
        f"chaos {args.target}: {len(result.points)} crash point(s), "
        f"seed {result.seed}: {result.crashed} crashed, "
        f"{result.degraded} degraded, {result.clean} clean; "
        f"{len(result.findings)} contract violation(s)"
    )
    if result.findings:
        from repro.analysis import format_findings

        print(format_findings(list(result.findings)))
        return 1
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.eval.reporting import format_manifest_report
    from repro.obs import load_run_manifest

    manifest = load_run_manifest(args.run)
    print(format_manifest_report(manifest, width=args.width))
    return 0


#: Where the benchmark harness keeps its ledger and gates.
_DEFAULT_HISTORY = "benchmarks/results/HISTORY.jsonl"
_DEFAULT_BASELINES = "benchmarks/baselines.json"


def cmd_perf_record(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.errors import PerfError
    from repro.obs.perf import append_record, bench_record

    metrics: dict = {}
    if args.from_json:
        try:
            data = json.loads(Path(args.from_json).read_text())
        except (
            OSError,
            UnicodeDecodeError,
            json.JSONDecodeError,
        ) as error:
            raise PerfError(
                f"cannot read metrics from {args.from_json}: {error}"
            ) from error
        if not isinstance(data, dict):
            raise PerfError(
                f"{args.from_json}: metrics payload must be a JSON object"
            )
        metrics.update(data)
    for item in args.metric:
        name, sep, value = item.partition("=")
        if not name or not sep:
            raise PerfError(f"bad --metric {item!r} (want NAME=VALUE)")
        try:
            metrics[name] = float(value)
        except ValueError as error:
            raise PerfError(
                f"--metric {item!r}: value is not a number"
            ) from error
    record = bench_record(args.bench, metrics)
    append_record(Path(args.history), record)
    print(
        f"recorded {args.bench}: {len(record['metrics'])} metric(s) "
        f"(git {record['git'] or 'unknown'}) -> {args.history}"
    )
    return 0


def cmd_perf_diff(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.errors import PerfError

    if args.history:
        from repro.obs.perf import (
            diff_metric_maps,
            format_record_diff,
            read_history,
        )

        if args.runs:
            raise PerfError(
                "perf diff takes either two run files or --history, "
                "not both"
            )
        records = read_history(Path(args.history))
        if args.bench:
            records = [
                r for r in records if r.get("bench") == args.bench
            ]
        if len(records) < 2:
            scope = f" for bench {args.bench!r}" if args.bench else ""
            raise PerfError(
                f"{args.history}: need at least two records{scope} "
                "to diff"
            )
        a, b = records[-2], records[-1]
        if args.json:
            payload = {
                "a": {k: a.get(k) for k in ("bench", "git", "host")},
                "b": {k: b.get(k) for k in ("bench", "git", "host")},
                "metrics": diff_metric_maps(
                    a.get("metrics") or {}, b.get("metrics") or {}
                ),
            }
            print(json.dumps(payload, sort_keys=True))
        else:
            print(format_record_diff(a, b))
        return 0
    if len(args.runs) != 2:
        raise PerfError(
            "perf diff takes exactly two run files "
            "(or --history PATH for ledger records)"
        )
    from repro.obs import load_run_manifest
    from repro.obs.perf import diff_manifests, format_diff

    diff = diff_manifests(
        load_run_manifest(args.runs[0]), load_run_manifest(args.runs[1])
    )
    if args.json:
        print(json.dumps(diff, sort_keys=True))
    else:
        print(format_diff(diff))
    return 0


def cmd_perf_check(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import (
        Severity,
        audit_perf_history,
        format_findings,
    )
    from repro.obs.perf import (
        check_records,
        format_checks,
        latest_records,
        load_baselines,
        read_history,
    )

    history = Path(args.history)
    baselines_path = Path(args.baselines)
    findings = audit_perf_history(history, baselines=baselines_path)
    if findings:
        print(format_findings(findings))
    parse_broken = any(
        f.rule == "perf/history-parse" and f.severity is Severity.ERROR
        for f in findings
    )
    if parse_broken or not baselines_path.is_file():
        # Either the ledger cannot be trusted line by line or there is
        # nothing to gate against; the findings above say which.  A
        # torn tail is only a warning: the gate reads the records
        # before it.
        return 1 if findings else 0
    checks = check_records(
        load_baselines(baselines_path),
        latest_records(read_history(history)),
    )
    print(format_checks(checks))
    failed = any(check.failed for check in checks)
    return 1 if failed or findings else 0


def cmd_lint(args: argparse.Namespace) -> int:
    import sys
    from pathlib import Path

    from repro.analysis import (
        findings_to_json,
        format_findings,
        format_stats,
        render_sarif,
        rule_descriptions,
        run_linter_detailed,
    )
    from repro.errors import AnalysisError

    paths = args.paths
    if not paths:
        paths = [p for p in _DEFAULT_LINT_PATHS if Path(p).is_dir()]
        if not paths:
            raise AnalysisError(
                "no lint paths given and none of the defaults "
                f"({', '.join(_DEFAULT_LINT_PATHS)}) exist here"
            )
    select = args.select.split(",") if args.select else None
    run = run_linter_detailed(paths, select=select)

    if args.format == "sarif":
        descriptions = rule_descriptions()
        payload = render_sarif(
            run.findings,
            {
                rule_id: descriptions.get(rule_id, "")
                for rule_id in run.rules_run
            },
        )
    elif args.format == "json":
        payload = findings_to_json(run.findings)
    else:
        payload = format_findings(run.findings)

    if args.output:
        from repro.io import atomic_write_text

        atomic_write_text(args.output, payload + "\n", site="cli.lint-output")
        stats_stream = sys.stdout
    else:
        print(payload)
        stats_stream = sys.stderr
    if args.stats:
        print(
            format_stats(run.findings, run.files_scanned, run.rules_run),
            file=stats_stream,
        )
    return 1 if run.findings else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-layout",
        description=(
            "Reproduction harness for 'Procedure Placement Using "
            "Temporal Ordering Information' (MICRO-30, 1997)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list", help="list the benchmark analog workloads"
    )
    list_parser.set_defaults(func=cmd_list)

    compare = subparsers.add_parser(
        "compare", help="compare placement algorithms on one workload"
    )
    compare.add_argument("workload", help="workload name (see 'list')")
    compare.add_argument(
        "--runs", type=int, default=0,
        help="perturbed runs per algorithm (0 = single clean run)",
    )
    compare.add_argument(
        "--fast", action="store_true", help="use 4x shorter traces"
    )
    _add_cache_arguments(compare)
    _add_store_arguments(compare)
    _add_obs_arguments(compare)
    _add_runner_arguments(compare)
    compare.set_defaults(func=cmd_compare)

    table1 = subparsers.add_parser(
        "table1", help="print the Table 1 analog statistics"
    )
    table1.add_argument(
        "--fast", action="store_true", help="use 4x shorter traces"
    )
    _add_cache_arguments(table1)
    _add_store_arguments(table1)
    _add_obs_arguments(table1)
    _add_runner_arguments(table1)
    table1.set_defaults(func=cmd_table1)

    correlate = subparsers.add_parser(
        "correlate",
        help="metric-vs-misses correlation on damaged layouts (Figure 6)",
    )
    correlate.add_argument("workload", help="workload name (see 'list')")
    correlate.add_argument(
        "--layouts", type=int, default=20,
        help="number of damaged layouts to score",
    )
    correlate.add_argument(
        "--fast", action="store_true", help="use 4x shorter traces"
    )
    _add_cache_arguments(correlate)
    correlate.set_defaults(func=cmd_correlate)

    gen_trace = subparsers.add_parser(
        "gen-trace", help="generate and save a workload trace"
    )
    gen_trace.add_argument(
        "workload",
        nargs="?",
        default="",
        help="workload name (see 'list'); omit when using --spec",
    )
    gen_trace.add_argument(
        "--spec",
        default=None,
        help="JSON workload specification file (repro/workload format)",
    )
    gen_trace.add_argument(
        "--which", choices=["train", "test"], default="train"
    )
    gen_trace.add_argument(
        "--scale", type=float, default=1.0,
        help="trace-length scale factor",
    )
    gen_trace.add_argument(
        "-o", "--output", required=True, help="output .npz path"
    )
    _add_store_arguments(gen_trace)
    _add_obs_arguments(gen_trace)
    gen_trace.set_defaults(func=cmd_gen_trace)

    place = subparsers.add_parser(
        "place", help="profile a saved trace and place the program"
    )
    place.add_argument("trace", help="training trace (.npz)")
    place.add_argument(
        "--algorithm",
        choices=sorted(service.ALGORITHMS),
        default="gbsc",
    )
    place.add_argument(
        "-o", "--output", required=True, help="output layout .json path"
    )
    _add_cache_arguments(place)
    _add_store_arguments(place)
    _add_obs_arguments(place)
    place.set_defaults(func=cmd_place)

    serve_cmd = subparsers.add_parser(
        "serve",
        help="run the placement service: HTTP endpoints for trace "
        "upload, layout requests, /metrics and /healthz over a "
        "shared artifact store",
    )
    serve_cmd.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    serve_cmd.add_argument(
        "--port", type=int, default=8100,
        help="TCP port; 0 picks an ephemeral port, printed on startup "
        "(default: 8100)",
    )
    serve_cmd.add_argument(
        "--cache", required=True, metavar="DIR",
        help="shared content-addressed artifact store: uploaded "
        "traces land here and identical uploads dedupe",
    )
    serve_cmd.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="default soft deadline per layout request (requests may "
        "override; overruns answer with a 504-style status)",
    )
    serve_cmd.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the service run manifest (JSONL) on shutdown",
    )
    serve_cmd.add_argument(
        "-v", "--verbose", action="store_true",
        help="log one line per HTTP request on stderr",
    )
    serve_cmd.set_defaults(func=cmd_serve)

    simulate_cmd = subparsers.add_parser(
        "simulate", help="simulate a saved layout on a saved trace"
    )
    simulate_cmd.add_argument("layout", help="layout .json path")
    simulate_cmd.add_argument("trace", help="trace .npz path")
    _add_cache_arguments(simulate_cmd)
    _add_obs_arguments(simulate_cmd)
    simulate_cmd.set_defaults(func=cmd_simulate)

    visualize = subparsers.add_parser(
        "visualize", help="render a saved layout's cache footprint"
    )
    visualize.add_argument("layout", help="layout .json path")
    visualize.add_argument("--width", type=int, default=64)
    visualize.add_argument("--limit", type=int, default=20)
    _add_cache_arguments(visualize)
    visualize.set_defaults(func=cmd_visualize)

    memory = subparsers.add_parser(
        "memory",
        help="reuse-distance and paging analysis of a layout + trace",
    )
    memory.add_argument("layout", help="layout .json path")
    memory.add_argument("trace", help="trace .npz path")
    memory.add_argument("--page-size", type=int, default=4096)
    _add_cache_arguments(memory)
    memory.set_defaults(func=cmd_memory)

    check = subparsers.add_parser(
        "check",
        help="audit saved artifacts (layout/graph JSON, JSONL run "
        "files, run directories) for invariant violations",
    )
    check.add_argument(
        "artifacts",
        nargs="+",
        help="artifact .json / .jsonl paths or run directories to audit",
    )
    _add_cache_arguments(check)
    check.set_defaults(func=cmd_check)

    cache = subparsers.add_parser(
        "cache",
        help="inspect and maintain a --cache artifact store",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="entry counts and byte totals per artifact kind"
    )
    cache_stats.add_argument("dir", help="store directory (--cache DIR)")
    cache_stats.set_defaults(func=cmd_cache_stats)
    cache_gc = cache_sub.add_parser(
        "gc",
        help="drop dangling index entries, orphaned blobs and stale "
        "temp files; optionally trim to a byte budget",
    )
    cache_gc.add_argument("dir", help="store directory (--cache DIR)")
    cache_gc.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="evict oldest entries until the store holds at most N "
        "bytes of blobs",
    )
    cache_gc.set_defaults(func=cmd_cache_gc)
    cache_verify = cache_sub.add_parser(
        "verify",
        help="audit the store (cache/* rules): index parses, blob "
        "digests match, no orphans",
    )
    cache_verify.add_argument("dir", help="store directory (--cache DIR)")
    cache_verify.set_defaults(func=cmd_cache_verify)

    chaos = subparsers.add_parser(
        "chaos",
        help="deterministic I/O fault injection and crash campaigns",
    )
    chaos_sub = chaos.add_subparsers(dest="chaos_command", required=True)
    chaos_run = chaos_sub.add_parser(
        "run",
        help="crash a real batch run at seeded write-site points and "
        "verify the recovery contract after each",
    )
    chaos_run.add_argument(
        "target", choices=("table1", "compare"),
        help="which batch run to crash",
    )
    chaos_run.add_argument(
        "--workload", default="perl",
        help="workload for compare campaigns (see 'list')",
    )
    chaos_run.add_argument(
        "--runs", type=int, default=0,
        help="perturbed runs per algorithm for compare campaigns",
    )
    chaos_run.add_argument(
        "--fast", action="store_true", help="use 4x shorter traces"
    )
    chaos_run.add_argument(
        "--points", type=int, default=20,
        help="number of crash points to schedule (default: 20)",
    )
    chaos_run.add_argument(
        "--seed", type=int, default=0,
        help="campaign seed; same seed, same crash points",
    )
    chaos_run.add_argument(
        "--errors", default=None, metavar="KINDS",
        help="comma-separated error kinds to rotate through "
        "(default: all of enospc,eio,torn,kill,crash)",
    )
    chaos_run.add_argument(
        "--dir", default="chaos-work", metavar="DIR",
        help="campaign work directory (default: chaos-work)",
    )
    chaos_run.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the findings JSON artifact here",
    )
    chaos_run.add_argument(
        "--keep", action="store_true",
        help="keep per-point work directories for inspection",
    )
    _add_cache_arguments(chaos_run)
    chaos_run.set_defaults(func=cmd_chaos_run)
    chaos_sites = chaos_sub.add_parser(
        "sites",
        help="list registered write sites, protocol points and "
        "error kinds",
    )
    chaos_sites.set_defaults(func=cmd_chaos_sites)

    report = subparsers.add_parser(
        "report",
        help="render a JSONL run file's manifest (timings, stage self "
        "times, metrics)",
    )
    report.add_argument(
        "run", help="run file written by --metrics-out"
    )
    report.add_argument(
        "--width", type=int, default=40,
        help="phase bar chart width in characters",
    )
    report.set_defaults(func=cmd_report)

    perf = subparsers.add_parser(
        "perf",
        help="the perf lab: bench history ledger, manifest diffing, "
        "regression gating",
    )
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)
    perf_record = perf_sub.add_parser(
        "record",
        help="append one bench result (metrics + git + host "
        "fingerprint) to the history ledger",
    )
    perf_record.add_argument("bench", help="bench id, e.g. table1:gcc")
    perf_record.add_argument(
        "--from-json", default=None, metavar="FILE",
        help="read metrics from a JSON object file (nested keys are "
        "flattened with dots; non-numeric leaves dropped)",
    )
    perf_record.add_argument(
        "--metric", action="append", default=[], metavar="NAME=VALUE",
        help="add one numeric metric (repeatable)",
    )
    perf_record.add_argument(
        "--history", default=_DEFAULT_HISTORY, metavar="PATH",
        help=f"ledger to append to (default: {_DEFAULT_HISTORY})",
    )
    perf_record.set_defaults(func=cmd_perf_record)
    perf_diff = perf_sub.add_parser(
        "diff",
        help="diff two run manifests, or the two most recent ledger "
        "records with --history",
    )
    perf_diff.add_argument(
        "runs", nargs="*",
        help="exactly two JSONL run files (omit when using --history)",
    )
    perf_diff.add_argument(
        "--history", nargs="?", default=None, const=_DEFAULT_HISTORY,
        metavar="PATH",
        help="diff the two most recent records of a history ledger "
        f"instead of two run files (PATH defaults to {_DEFAULT_HISTORY})",
    )
    perf_diff.add_argument(
        "--bench", default=None, metavar="ID",
        help="with --history: restrict to records of one bench id",
    )
    perf_diff.add_argument(
        "--json", action="store_true",
        help="emit the diff payload as JSON instead of text",
    )
    perf_diff.set_defaults(func=cmd_perf_diff)
    perf_check = perf_sub.add_parser(
        "check",
        help="audit the ledger (perf/* rules) and gate the latest "
        "record per bench against committed baselines",
    )
    perf_check.add_argument(
        "--history", default=_DEFAULT_HISTORY, metavar="PATH",
        help=f"history ledger (default: {_DEFAULT_HISTORY})",
    )
    perf_check.add_argument(
        "--baselines", default=_DEFAULT_BASELINES, metavar="PATH",
        help=f"baselines file (default: {_DEFAULT_BASELINES})",
    )
    perf_check.set_defaults(func=cmd_perf_check)

    lint = subparsers.add_parser(
        "lint",
        help="run the conformance analyzer over Python sources",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=[],
        help="files or directories to lint "
        f"(default: {' '.join(_DEFAULT_LINT_PATHS)})",
    )
    lint.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids or globs to run, e.g. "
        "'arch/*,det/wallclock' (default: all rules)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="findings output format (default: text)",
    )
    lint.add_argument(
        "--output",
        default=None,
        help="write the findings payload to this file (atomically) "
        "instead of stdout",
    )
    lint.add_argument(
        "--stats",
        action="store_true",
        help="print run statistics (files scanned, rules run, "
        "finding counts); goes to stderr unless --output is given",
    )
    lint.set_defaults(func=cmd_lint)

    return parser


def _interrupted(args: argparse.Namespace) -> str:
    """The line an interrupt prints: with a resume hint only when the
    run's checkpoint journal exists to resume from."""
    if service.has_journal(getattr(args, "checkpoint", None) or None):
        return "interrupted — resume with --resume"
    return "interrupted"


def main(argv: Sequence[str] | None = None) -> int:
    """Parse arguments and dispatch; library errors exit 2 in one line.

    ``ReproError`` covers every failure the library raises on purpose
    (bad inputs, unreadable artifacts, invalid geometry) — those are
    user errors, reported without a traceback.  Genuine bugs still
    raise.

    ``KeyboardInterrupt`` exits 130 (128 + SIGINT) with one line and
    no traceback.  The line hints at ``--resume`` when a checkpoint
    journal exists: it is fsynced after every task, so whatever
    completed before the interrupt is already durable.  The fault
    harness's simulated ``SIGKILL``
    (:class:`repro.errors.SimulatedKill`) maps to 137 (128 + SIGKILL)
    so in-process CLI tests can observe kill semantics.
    """
    from repro.errors import SimulatedKill

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print(_interrupted(args), file=sys.stderr)
        return 130
    except SimulatedKill:
        return 137


if __name__ == "__main__":
    sys.exit(main())
