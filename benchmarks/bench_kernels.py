"""Vectorized kernels — scalar twin vs kernel wall clock.

Two kernel families, each timed against its scalar twin and asserted
bit-exact, with the timings recorded in
``benchmarks/results/BENCH_kernels.json``:

* **TRG construction.**  Both TRGs for every suite workload, through
  the scalar Section 3 twin (:func:`repro.profiles.trg.build_trgs_scalar`)
  and through the :mod:`repro.profiles.fast` array kernel.
* **Cache simulation.**  The perl test stream (the suite's longest) at
  the default layout, replayed through the direct-mapped kernels and
  :class:`~repro.cache.direct.DirectMappedCache` on the paper cache,
  and through the 2-way kernels and
  :class:`~repro.cache.setassoc.SetAssociativeCache` on its Section 6
  variant.  Each model's flag kernel and count kernel are timed
  against the same scalar run: the per-access miss flags must be
  equal, and the count must equal the scalar miss count.
* **Section 6 merge cost.**  The first merges of a GBSC-SA placement
  of m88ksim on the 2-way paper cache, scored by the placement's
  :class:`~repro.core.setassoc.PairIndex` and by the scalar twin
  :func:`~repro.core.setassoc.sa_offset_costs_reference`.  The cost
  vectors must agree to round-off.
* **Section 6 pair database.**  Over every suite workload, the scalar
  twin :func:`~repro.profiles.pairdb.build_pair_database` against the
  array build :func:`~repro.profiles.fast.build_pair_database_fast`.
  Blocks, every block's pairs in order, and the stats must be equal.
* **Placements, perturbation, the GBSC chunk index and trace
  generation.**  Best-of-5 wall seconds per call of PH, HKC, GBSC,
  :meth:`PlacementContext.perturbed` (each call on a fresh context,
  so it builds the frozen graphs' canonical edge views, as the first
  perturbation of a sweep does) and a
  :class:`~repro.core.merge.ChunkWeights` build over ``TRG_place`` and
  the popular set on gcc, and of
  :func:`~repro.trace.generator.generate_trace` for the perl test
  trace.  These have no scalar twin outside the tests, so they record
  plain wall times.  PH's greedy loop also records its heap pushes
  (the ``greedy.heap_pushes`` counter), a deterministic count.
* **Store kinds.**  Over every suite workload, the build of each kind
  the store keeps (the ``trace`` of the training input, through
  :func:`~repro.trace.generator.generate_trace`, and the ``trg``
  profiles) against a warm :class:`~repro.store.ArtifactStore` hit on
  the same key (index lookup, blob read, content hash and decode),
  plus the blob bytes.  The decoded value must equal the built one.
  The trace codec's :func:`~repro.store.codecs.encode_trace` and
  :func:`~repro.store.codecs.decode_trace` are also timed on their
  own, apart from generation and the store's file I/O.

The ≥10× acceptance threshold applies to the aggregate TRG-kernel
speedup, and the store's decision rule — keep a kind only if a warm
hit is at least 3× cheaper than its build — to every kind's
build/hit ratio.  Both are asserted only under representative
conditions:
≥4 usable cores *and* full-scale traces (``REPRO_SCALE=1``).  Under
``REPRO_FAST=1`` the quarter-scale traces shrink the arrays until
fixed per-call overhead dominates (≈6–7× instead of ≥10×), so reduced
scale records honest numbers without asserting.  The simulator and
merge-cost and pair-database speedups and the placement and
generation wall times are gated in ``benchmarks/baselines.json`` only;
the store ratio, the trace encode seconds and the blob bytes are gated
there too.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from benchmarks.conftest import (
    RESULTS_DIR,
    SCALE,
    record_bench,
    scaled_suite,
    write_report,
)
from repro import obs
from repro.cache.config import PAPER_CACHE, PAPER_CACHE_2WAY
from repro.cache.direct import DirectMappedCache
from repro.cache.fast import (
    count_direct_mapped_misses,
    count_two_way_lru_misses,
    direct_mapped_miss_flags,
    two_way_lru_miss_flags,
)
from repro.cache.linetrace import line_stream
from repro.cache.setassoc import SetAssociativeCache
from repro.core.gbsc import GBSCPlacement, gbsc_nodes
from repro.core.merge import ChunkWeights
from repro.core.popular import (
    DEFAULT_COVERAGE,
    DEFAULT_MAX_POPULAR,
    select_popular,
)
from repro.core.setassoc import (
    PairIndex,
    merge_nodes_sa,
    sa_offset_costs_reference,
)
from repro.eval.experiment import build_context, get_or_build_trgs
from repro.obs.clock import monotonic
from repro.obs.perf import host_fingerprint
from repro.placement.hkc import HashemiKaeliCalderPlacement
from repro.placement.ph import PettisHansenPlacement
from repro.profiles.fast import build_pair_database_fast, build_trgs_fast
from repro.profiles.pairdb import build_pair_database
from repro.profiles.perturb import PAPER_SCALE
from repro.profiles.trg import (
    DEFAULT_Q_MULTIPLIER,
    build_trgs_scalar,
    procedure_refs,
)
from repro.program.layout import Layout
from repro.program.procedure import DEFAULT_CHUNK_SIZE
from repro.store import ArtifactStore, decode_trace, encode_trace
from repro.trace.generator import generate_trace, get_or_generate_trace

#: Required aggregate scalar/fast TRG-build speedup.
SPEEDUP_THRESHOLD = 10.0

#: Hosts with fewer usable cores than this are not representative
#: and only record numbers.
MIN_CORES = 4

#: Wall-clock repeats per method; the best run is recorded.  Two is
#: enough to shed first-call warmup (imports, numpy dispatch caches)
#: and the worst of single-shot scheduler noise.
REPEATS = 2

#: Workload whose test stream the simulator kernels replay.
SIMULATED_WORKLOAD = "perl"

#: Workload whose GBSC-SA merges the Section 6 cost is timed on, and
#: how many of its first merges.
MERGED_WORKLOAD = "m88ksim"
SA_MERGES = 10

#: Workload PH, HKC and the perturbation are timed on, and the calls
#: per timing (best of).  A placement takes tens of milliseconds, so
#: more repeats than :data:`REPEATS` are cheap and steady the minimum.
PLACED_WORKLOAD = "gcc"
PLACEMENT_REPEATS = 5

#: The calls timed on :data:`PLACED_WORKLOAD`, in report order.
PLACEMENT_CALLS = ("ph", "hkc", "gbsc", "perturbed", "chunk_weights")

#: Workload whose test trace (the suite's longest) generation is
#: timed, best of :data:`PLACEMENT_REPEATS`.
GENERATED_WORKLOAD = "perl"

#: Store decision rule: a kind stays only if a warm hit is at least
#: this many times cheaper than its build.
HIT_THRESHOLD = 3.0


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def timed(run, *args, repeats=REPEATS, **kwargs):
    """``(result, best wall seconds)`` over *repeats* calls."""
    best = None
    result = None
    for _ in range(repeats):
        start = monotonic()
        result = run(*args, **kwargs)
        elapsed = monotonic() - start
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def _popular(train) -> set[str]:
    return set(
        select_popular(
            train,
            coverage=DEFAULT_COVERAGE,
            max_procedures=DEFAULT_MAX_POPULAR,
        ).procedures
    )


def _measure_workload(workload) -> dict:
    """Scalar vs fast build_trgs on one workload; asserts parity."""
    train = workload.trace("train")
    popular = _popular(train)
    scalar, scalar_seconds = timed(
        build_trgs_scalar, train, PAPER_CACHE, popular=popular
    )
    fast, fast_seconds = timed(
        build_trgs_fast, train, PAPER_CACHE, popular=popular
    )

    assert fast.select == scalar.select
    assert fast.place == scalar.place
    assert fast.select_stats == scalar.select_stats
    assert fast.place_stats == scalar.place_stats
    return {
        "scalar_seconds": scalar_seconds,
        "fast_seconds": fast_seconds,
        "speedup": scalar_seconds / fast_seconds,
        "select_refs": scalar.select_stats.refs_processed,
        "place_refs": scalar.place_stats.refs_processed,
        "select_edges": scalar.select.num_edges(),
        "place_edges": scalar.place.num_edges(),
    }


def scalar_miss_flags(model, lines: np.ndarray, config) -> np.ndarray:
    """Per-access miss flags of a scalar cache model, one touch each."""
    return np.fromiter(
        map(model(config).touch, lines.tolist()), dtype=bool, count=len(lines)
    )


def _measure_simulator(workload) -> dict:
    """Scalar twin vs flag and count kernels; asserts parity."""
    lines = line_stream(
        Layout.default(workload.program), workload.trace("test"), PAPER_CACHE
    ).lines
    pairs = {
        "dm": (
            direct_mapped_miss_flags,
            count_direct_mapped_misses,
            DirectMappedCache,
            PAPER_CACHE,
        ),
        "lru2": (
            two_way_lru_miss_flags,
            count_two_way_lru_misses,
            SetAssociativeCache,
            PAPER_CACHE_2WAY,
        ),
    }
    results = {}
    for name, (flags_of, count_of, model, config) in pairs.items():
        scalar, scalar_seconds = timed(
            scalar_miss_flags, model, lines, config
        )
        fast, fast_seconds = timed(flags_of, lines, config)
        count, count_seconds = timed(count_of, lines, config)
        assert np.array_equal(fast, scalar)
        assert count == int(scalar.sum())
        results[name] = {
            "scalar_seconds": scalar_seconds,
            "fast_seconds": fast_seconds,
            "speedup": scalar_seconds / fast_seconds,
            "count_seconds": count_seconds,
            "count_speedup": scalar_seconds / count_seconds,
            "misses": count,
        }
    return {"workload": workload.name, "lines": len(lines), **results}


def _measure_sa_merge(workload) -> dict:
    """Pair index vs loop on the first GBSC-SA merges; asserts parity."""
    context = build_context(
        workload.trace("train"), PAPER_CACHE_2WAY, with_pair_db=True
    )
    trgs = context.require_trgs()
    program, config = context.program, context.config
    pair_db = context.require_pair_db()
    weights = ChunkWeights(
        trgs.place, program, config, context.popular, trgs.chunk_size
    )
    pairs = PairIndex(pair_db, program, config, context.popular)
    merges = []

    def merge(n1, n2):
        if len(merges) < SA_MERGES:
            merges.append((n1, n2))
        return merge_nodes_sa(n1, n2, pairs, weights)

    gbsc_nodes(
        trgs.select,
        trgs.place,
        context.popular,
        program,
        config,
        trgs.chunk_size,
        merge=merge,
    )
    reference, reference_seconds = timed(
        lambda: [
            sa_offset_costs_reference(n1, n2, pair_db, program, config)
            for n1, n2 in merges
        ]
    )
    fast, fast_seconds = timed(
        lambda: [pairs.offset_costs(n1, n2) for n1, n2 in merges]
    )
    for fast_costs, reference_costs in zip(fast, reference):
        assert np.allclose(fast_costs, reference_costs, rtol=1e-9, atol=1e-9)
    return {
        "workload": workload.name,
        "merges": len(merges),
        "scalar_seconds": reference_seconds,
        "fast_seconds": fast_seconds,
        "speedup": reference_seconds / fast_seconds,
    }


def _scalar_pair_database(train, popular, capacity):
    return build_pair_database(
        procedure_refs(train, popular), train.program.size_of, capacity
    )


def _measure_pair_database(suite) -> dict:
    """Scalar twin vs array build of the Section 6 pair database,
    summed over *suite*; asserts parity on every workload."""
    capacity = DEFAULT_Q_MULTIPLIER * PAPER_CACHE.size
    scalar_seconds = fast_seconds = 0.0
    for workload in suite:
        train = workload.trace("train")
        popular = _popular(train)
        (scalar, scalar_stats), seconds = timed(
            _scalar_pair_database, train, popular, capacity
        )
        scalar_seconds += seconds
        (fast, fast_stats), seconds = timed(
            build_pair_database_fast, train, popular, capacity
        )
        fast_seconds += seconds
        assert fast.blocks == scalar.blocks
        assert all(
            list(fast.pairs_for(block).items())
            == list(scalar.pairs_for(block).items())
            for block in scalar.blocks
        )
        assert fast_stats == scalar_stats
    return {
        "scalar_seconds": scalar_seconds,
        "fast_seconds": fast_seconds,
        "speedup": scalar_seconds / fast_seconds,
    }


def _measure_generation(workload) -> dict:
    """Best wall seconds of generating *workload*'s test trace."""
    graph = workload.call_graph()
    trace, seconds = timed(
        generate_trace, graph, workload.test, repeats=PLACEMENT_REPEATS
    )
    return {"workload": workload.name, "events": len(trace), "seconds": seconds}


def _ph_heap_pushes(context) -> int:
    """The heap pushes of one PH placement of *context*."""
    previous = obs.current()
    registry = obs.enable().registry
    try:
        PettisHansenPlacement().place(context)
    finally:
        obs.restore(previous)
    return int(registry.counter("greedy.heap_pushes").value)


def _measure_placement(workload) -> dict:
    """Best wall seconds per call of PH, HKC, GBSC, one perturbed
    context and one GBSC chunk index, and PH's heap pushes."""
    train = workload.trace("train")
    context = build_context(train, PAPER_CACHE)
    trgs = context.require_trgs()
    fresh = iter(
        [build_context(train, PAPER_CACHE) for _ in range(PLACEMENT_REPEATS)]
    )
    runs = {
        "ph": lambda: PettisHansenPlacement().place(context),
        "hkc": lambda: HashemiKaeliCalderPlacement().place(context),
        "gbsc": lambda: GBSCPlacement().place(context),
        "perturbed": lambda: next(fresh).perturbed(PAPER_SCALE, 1),
        "chunk_weights": lambda: ChunkWeights(
            trgs.place,
            context.program,
            context.config,
            context.popular,
            trgs.chunk_size,
        ),
    }
    results = {"workload": workload.name}
    for name, run in runs.items():
        _, seconds = timed(run, repeats=PLACEMENT_REPEATS)
        results[name] = {"seconds": seconds}
    results["ph"]["heap_pushes"] = _ph_heap_pushes(context)
    return results


def _get_trgs(train, popular, store):
    return get_or_build_trgs(
        train,
        PAPER_CACHE,
        DEFAULT_CHUNK_SIZE,
        popular,
        DEFAULT_Q_MULTIPLIER,
        store,
    )


def _same_trace(a, b) -> bool:
    return a.program == b.program and all(
        np.array_equal(x, y)
        for x, y in (
            (a.proc_indices, b.proc_indices),
            (a.extent_starts, b.extent_starts),
            (a.extent_lengths, b.extent_lengths),
        )
    )


def _same_trgs(a, b) -> bool:
    return (a.select, a.place) == (b.select, b.place)


def _measure_store(suite) -> dict:
    """Build vs warm-hit seconds of every kind the store keeps, and
    the trace codec's encode and decode seconds, summed over *suite*;
    asserts each hit and each decoded trace equals the build."""
    totals = {
        kind: {"build_seconds": 0.0, "hit_seconds": 0.0}
        for kind in ("trace", "trg")
    }
    totals["trace"].update(encode_seconds=0.0, decode_seconds=0.0)
    with tempfile.TemporaryDirectory() as root:
        store = ArtifactStore(root)
        for workload in suite:
            train = workload.trace("train")
            blob, encode_seconds = timed(encode_trace, train)
            decoded, decode_seconds = timed(decode_trace, blob)
            assert _same_trace(decoded, train)
            totals["trace"]["encode_seconds"] += encode_seconds
            totals["trace"]["decode_seconds"] += decode_seconds
            kinds = {
                "trace": (
                    get_or_generate_trace,
                    (workload.call_graph(), workload.train),
                    _same_trace,
                ),
                "trg": (_get_trgs, (train, _popular(train)), _same_trgs),
            }
            for kind, (fetch, inputs, same) in kinds.items():
                built, build_seconds = timed(fetch, *inputs, None)
                fetch(*inputs, store)
                hit, hit_seconds = timed(fetch, *inputs, store)
                assert same(hit, built)
                totals[kind]["build_seconds"] += build_seconds
                totals[kind]["hit_seconds"] += hit_seconds
        assert store.hits == len(totals) * len(suite) * REPEATS
        stored = store.stats()["kinds"]
    for kind, total in totals.items():
        total["bytes"] = stored[kind]["bytes"]
        total["build_over_hit"] = total["build_seconds"] / total["hit_seconds"]
    return totals


def test_kernel_speedup():
    enforced = usable_cores() >= MIN_CORES and SCALE == 1.0

    suite = scaled_suite()
    workloads = {}
    total_scalar = total_fast = 0.0
    for workload in suite:
        result = _measure_workload(workload)
        workloads[workload.name] = result
        total_scalar += result["scalar_seconds"]
        total_fast += result["fast_seconds"]
    aggregate = {
        "scalar_seconds": total_scalar,
        "fast_seconds": total_fast,
        "speedup": total_scalar / total_fast,
    }
    simulate = _measure_simulator(
        next(w for w in suite if w.name == SIMULATED_WORKLOAD)
    )
    merge_sa = _measure_sa_merge(
        next(w for w in suite if w.name == MERGED_WORKLOAD)
    )
    pairdb = _measure_pair_database(suite)
    placement = _measure_placement(
        next(w for w in suite if w.name == PLACED_WORKLOAD)
    )
    generation = _measure_generation(
        next(w for w in suite if w.name == GENERATED_WORKLOAD)
    )
    store = _measure_store(suite)

    record = {
        "bench": "kernels",
        "host": host_fingerprint(),
        "scale": SCALE,
        "threshold": SPEEDUP_THRESHOLD,
        "threshold_enforced": enforced,
        "workloads": workloads,
        "aggregate": aggregate,
        "simulate": simulate,
        "merge": {"sa": merge_sa},
        "pairdb": pairdb,
        "placement": placement,
        "trace": {"generate": generation},
        "store": store,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_kernels.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    record_bench(
        "kernels",
        {
            "aggregate": aggregate,
            "select_edges": sum(
                w["select_edges"] for w in workloads.values()
            ),
            "place_edges": sum(w["place_edges"] for w in workloads.values()),
            "simulate": {
                name: {
                    key: simulate[name][key]
                    for key in ("speedup", "count_speedup")
                }
                for name in ("dm", "lru2")
            },
            "merge": {"sa": {"speedup": merge_sa["speedup"]}},
            "pairdb": {"speedup": pairdb["speedup"]},
            "placement": {
                name: placement[name] for name in PLACEMENT_CALLS
            },
            "trace": {"generate": {"seconds": generation["seconds"]}},
            "store": {
                kind: {
                    key: value
                    for key, value in result.items()
                    if key not in ("build_seconds", "hit_seconds")
                }
                for kind, result in store.items()
            },
        },
    )
    lines = ["TRG construction (scalar twin vs vectorized kernel):"]
    for name, result in workloads.items():
        lines.append(
            f"  {name:<12} {result['scalar_seconds']:7.2f}s scalar, "
            f"{result['fast_seconds']:6.2f}s fast  "
            f"({result['speedup']:5.1f}x)"
        )
    lines.append(
        f"  {'aggregate':<12} {aggregate['scalar_seconds']:7.2f}s scalar, "
        f"{aggregate['fast_seconds']:6.2f}s fast  "
        f"({aggregate['speedup']:5.1f}x)"
    )
    lines.append(
        f"Cache simulation ({simulate['workload']} test stream, "
        f"{simulate['lines']} lines; scalar twin vs flag and count kernels):"
    )
    for name in ("dm", "lru2"):
        result = simulate[name]
        lines.append(
            f"  {name:<12} {result['scalar_seconds']:7.2f}s scalar, "
            f"{result['fast_seconds']:6.2f}s flags "
            f"({result['speedup']:5.1f}x), "
            f"{result['count_seconds']:6.2f}s count "
            f"({result['count_speedup']:5.1f}x)"
        )
    lines.append(
        f"Section 6 merge cost ({merge_sa['workload']}, first "
        f"{merge_sa['merges']} GBSC-SA merges; scalar twin vs pair index):"
    )
    lines.append(
        f"  {'sa':<12} {merge_sa['scalar_seconds']:7.2f}s scalar, "
        f"{merge_sa['fast_seconds']:6.3f}s fast  "
        f"({merge_sa['speedup']:5.1f}x)"
    )
    lines.append(
        "Section 6 pair database (summed over the suite; scalar twin vs "
        "array build):"
    )
    lines.append(
        f"  {'pairdb':<12} {pairdb['scalar_seconds']:7.2f}s scalar, "
        f"{pairdb['fast_seconds']:6.3f}s fast  "
        f"({pairdb['speedup']:5.1f}x)"
    )
    lines.append(
        f"Placements, perturbation and the GBSC chunk index "
        f"({placement['workload']}, best of {PLACEMENT_REPEATS} calls):"
    )
    for name in PLACEMENT_CALLS:
        lines.append(
            f"  {name:<14} {placement[name]['seconds']:7.3f}s per call"
        )
    lines.append(
        f"  {'ph pushes':<14} {placement['ph']['heap_pushes']:7d} heap pushes"
    )
    lines.append(
        f"Trace generation ({generation['workload']} test trace, "
        f"{generation['events']} events, best of {PLACEMENT_REPEATS}):"
    )
    lines.append(f"  {'generate':<12} {generation['seconds']:7.3f}s per call")
    lines.append(
        "Store kinds (build vs warm hit, summed over the suite; "
        f"a kind stays at >= {HIT_THRESHOLD:.0f}x):"
    )
    for kind, result in store.items():
        lines.append(
            f"  {kind:<12} {result['build_seconds']:7.3f}s build, "
            f"{result['hit_seconds']:6.3f}s hit  "
            f"({result['build_over_hit']:5.1f}x), "
            f"{result['bytes']} blob bytes"
        )
    trace_codec = store["trace"]
    lines.append(
        f"  {'trace codec':<12} {trace_codec['encode_seconds']:7.3f}s encode, "
        f"{trace_codec['decode_seconds']:6.3f}s decode"
    )
    write_report("kernels", "\n".join(lines))
    if enforced:
        assert aggregate["speedup"] >= SPEEDUP_THRESHOLD
        for result in store.values():
            assert result["build_over_hit"] >= HIT_THRESHOLD
