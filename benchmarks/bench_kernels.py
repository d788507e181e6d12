"""Vectorized kernels — scalar twin vs kernel wall clock.

Two kernel families, each timed against its scalar twin and asserted
bit-exact, with the timings recorded in
``benchmarks/results/BENCH_kernels.json``:

* **TRG construction.**  Both TRGs for every suite workload, through
  the scalar Section 3 twin (:func:`repro.profiles.trg.build_trgs_scalar`)
  and through the :mod:`repro.profiles.fast` array kernel.
* **Cache simulation.**  The perl test stream (the suite's longest) at
  the default layout, replayed through the direct-mapped kernel and
  :class:`~repro.cache.direct.DirectMappedCache` on the paper cache,
  and through the 2-way kernel and
  :class:`~repro.cache.setassoc.SetAssociativeCache` on its Section 6
  variant.  The per-access miss flags must be equal.
* **Section 6 merge cost.**  The first merges of a GBSC-SA placement
  of m88ksim on the 2-way paper cache, scored by the placement's
  :class:`~repro.core.setassoc.PairIndex` and by the scalar twin
  :func:`~repro.core.setassoc.sa_offset_costs_reference`.  The cost
  vectors must agree to round-off.
* **Placement baselines and perturbation.**  Best-of-5 wall seconds
  per call of PH, HKC and :meth:`PlacementContext.perturbed` on gcc.
  These have no scalar twin outside the tests, so they record plain
  wall times.

The ≥10× acceptance threshold applies to the aggregate TRG-kernel
speedup and is asserted only under representative conditions:
≥4 usable cores *and* full-scale traces (``REPRO_SCALE=1``).  Under
``REPRO_FAST=1`` the quarter-scale traces shrink the arrays until
fixed per-call overhead dominates (≈6–7× instead of ≥10×), so reduced
scale records honest numbers without asserting.  The simulator and
merge-cost speedups and the placement wall times are gated in
``benchmarks/baselines.json`` only.
"""

from __future__ import annotations

import json
import os

import numpy as np

from benchmarks.conftest import (
    RESULTS_DIR,
    SCALE,
    record_bench,
    scaled_suite,
    write_report,
)
from repro.cache.config import PAPER_CACHE, PAPER_CACHE_2WAY
from repro.cache.direct import DirectMappedCache
from repro.cache.fast import direct_mapped_miss_flags, two_way_lru_miss_flags
from repro.cache.linetrace import line_stream
from repro.cache.setassoc import SetAssociativeCache
from repro.core.gbsc import gbsc_nodes
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
from repro.eval.experiment import build_context
from repro.obs.clock import monotonic
from repro.obs.perf import host_fingerprint
from repro.placement.hkc import HashemiKaeliCalderPlacement
from repro.placement.ph import PettisHansenPlacement
from repro.profiles.fast import build_trgs_fast
from repro.profiles.perturb import PAPER_SCALE
from repro.profiles.trg import build_trgs_scalar
from repro.program.layout import Layout

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


def _measure_workload(workload) -> dict:
    """Scalar vs fast build_trgs on one workload; asserts parity."""
    train = workload.trace("train")
    popular = set(
        select_popular(
            train,
            coverage=DEFAULT_COVERAGE,
            max_procedures=DEFAULT_MAX_POPULAR,
        ).procedures
    )
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
    """Scalar twin vs kernel per-access miss flags; asserts parity."""
    lines = line_stream(
        Layout.default(workload.program), workload.trace("test"), PAPER_CACHE
    ).lines
    pairs = {
        "dm": (direct_mapped_miss_flags, DirectMappedCache, PAPER_CACHE),
        "lru2": (
            two_way_lru_miss_flags, SetAssociativeCache, PAPER_CACHE_2WAY
        ),
    }
    results = {}
    for name, (kernel, model, config) in pairs.items():
        scalar, scalar_seconds = timed(
            scalar_miss_flags, model, lines, config
        )
        fast, fast_seconds = timed(kernel, lines, config)
        assert np.array_equal(fast, scalar)
        results[name] = {
            "scalar_seconds": scalar_seconds,
            "fast_seconds": fast_seconds,
            "speedup": scalar_seconds / fast_seconds,
            "misses": int(fast.sum()),
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


def _measure_placement(workload) -> dict:
    """Best wall seconds per call of PH, HKC and one perturbed context."""
    context = build_context(workload.trace("train"), PAPER_CACHE)
    runs = {
        "ph": lambda: PettisHansenPlacement().place(context),
        "hkc": lambda: HashemiKaeliCalderPlacement().place(context),
        "perturbed": lambda: context.perturbed(PAPER_SCALE, 1),
    }
    results = {"workload": workload.name}
    for name, run in runs.items():
        _, seconds = timed(run, repeats=PLACEMENT_REPEATS)
        results[name] = {"seconds": seconds}
    return results


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
    placement = _measure_placement(
        next(w for w in suite if w.name == PLACED_WORKLOAD)
    )

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
        "placement": placement,
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
                name: {"speedup": simulate[name]["speedup"]}
                for name in ("dm", "lru2")
            },
            "merge": {"sa": {"speedup": merge_sa["speedup"]}},
            "placement": {
                name: placement[name] for name in ("ph", "hkc", "perturbed")
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
        f"{simulate['lines']} lines; scalar twin vs vectorized kernel):"
    )
    for name in ("dm", "lru2"):
        result = simulate[name]
        lines.append(
            f"  {name:<12} {result['scalar_seconds']:7.2f}s scalar, "
            f"{result['fast_seconds']:6.2f}s fast  "
            f"({result['speedup']:5.1f}x)"
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
        f"Placement baselines and perturbation ({placement['workload']}, "
        f"best of {PLACEMENT_REPEATS} calls):"
    )
    for name in ("ph", "hkc", "perturbed"):
        lines.append(
            f"  {name:<12} {placement[name]['seconds']:7.3f}s per call"
        )
    write_report("kernels", "\n".join(lines))
    if enforced:
        assert aggregate["speedup"] >= SPEEDUP_THRESHOLD
