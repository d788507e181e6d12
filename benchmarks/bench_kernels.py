"""TRG construction — scalar twin vs vectorized kernel wall clock.

Builds both TRGs for every suite workload twice — through the scalar
Section 3 twin (:func:`repro.profiles.trg.build_trgs_scalar`) and
through the :mod:`repro.profiles.fast` array kernel — asserts the
results are bit-exact, and records the timings in
``benchmarks/results/BENCH_kernels.json``.

The ≥10× acceptance threshold applies to the aggregate TRG-kernel
speedup and is asserted only under representative conditions:
≥4 usable cores *and* full-scale traces (``REPRO_SCALE=1``).  Under
``REPRO_FAST=1`` the quarter-scale traces shrink the arrays until
fixed per-call overhead dominates (≈6–7× instead of ≥10×), so reduced
scale records honest numbers without asserting.
"""

from __future__ import annotations

import json
import os

from benchmarks.conftest import (
    RESULTS_DIR,
    SCALE,
    record_bench,
    scaled_suite,
    write_report,
)
from repro.cache.config import PAPER_CACHE
from repro.core.popular import (
    DEFAULT_COVERAGE,
    DEFAULT_MAX_POPULAR,
    select_popular,
)
from repro.obs.clock import monotonic
from repro.obs.perf import host_fingerprint
from repro.profiles.fast import build_trgs_fast
from repro.profiles.trg import build_trgs_scalar

#: Required aggregate scalar/fast TRG-build speedup.
SPEEDUP_THRESHOLD = 10.0

#: Hosts with fewer usable cores than this are not representative
#: and only record numbers.
MIN_CORES = 4

#: Wall-clock repeats per method; the best run is recorded.  Two is
#: enough to shed first-call warmup (imports, numpy dispatch caches)
#: and the worst of single-shot scheduler noise.
REPEATS = 2


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


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
    def timed(build):
        best = None
        result = None
        for _ in range(REPEATS):
            start = monotonic()
            result = build(train, PAPER_CACHE, popular=popular)
            elapsed = monotonic() - start
            best = elapsed if best is None else min(best, elapsed)
        return result, best

    scalar, scalar_seconds = timed(build_trgs_scalar)
    fast, fast_seconds = timed(build_trgs_fast)

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


def test_kernel_speedup():
    enforced = usable_cores() >= MIN_CORES and SCALE == 1.0

    workloads = {}
    total_scalar = total_fast = 0.0
    for workload in scaled_suite():
        result = _measure_workload(workload)
        workloads[workload.name] = result
        total_scalar += result["scalar_seconds"]
        total_fast += result["fast_seconds"]
    aggregate = {
        "scalar_seconds": total_scalar,
        "fast_seconds": total_fast,
        "speedup": total_scalar / total_fast,
    }

    record = {
        "bench": "kernels",
        "host": host_fingerprint(),
        "scale": SCALE,
        "threshold": SPEEDUP_THRESHOLD,
        "threshold_enforced": enforced,
        "workloads": workloads,
        "aggregate": aggregate,
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
    write_report("kernels", "\n".join(lines))
    if enforced:
        assert aggregate["speedup"] >= SPEEDUP_THRESHOLD
