"""Workload specs and the metric table — plain data, no ``repro`` import.

The parent process of ``python -m benchmarks.e2e run`` and the
``compare`` tool read this module; only the per-workload child imports
the library.  ``BENCHMARK.json`` at the repository root mirrors
:data:`END_TO_END` and :data:`PER_LAYER` (a test keeps them in step).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class WorkloadSpec:
    """Fixed work per repetition; shrink it with ``dataclasses.replace``.

    ``kind`` is ``"sweep"`` (``build_context`` then a Figure 5
    ``perturbation_sweep`` over *algorithms* with *runs* perturbed
    profiles) or ``"cold"`` (the Table 1 cold path: generate, profile
    into a fresh store and simulate the default layout, per program).
    """

    name: str
    why: str
    kind: str
    programs: tuple[str, ...]
    scale: float
    associativity: int
    algorithms: tuple[str, ...]
    runs: int = 0
    with_pair_db: bool = False
    warm_store: bool = False


WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="fig5-gcc",
            why=(
                "Figure 5 sweep on gcc x0.25, no store: the GBSC merge "
                "dominates, so a merge optimisation must show here"
            ),
            kind="sweep",
            programs=("gcc",),
            scale=0.25,
            associativity=1,
            algorithms=("default", "PH", "HKC", "GBSC"),
            runs=1,
        ),
        WorkloadSpec(
            name="fig5-perl",
            why=(
                "Figure 5 sweep on full-scale perl, the longest test trace, "
                "profiles read from a warm store: the simulator dominates"
            ),
            kind="sweep",
            programs=("perl",),
            scale=1.0,
            associativity=1,
            algorithms=("default", "PH", "HKC", "GBSC"),
            runs=1,
            warm_store=True,
        ),
        WorkloadSpec(
            name="sa2-m88ksim",
            why=(
                "Section 6 on m88ksim x0.5 with a 2-way cache: pair database, "
                "set-associative merge, LRU simulation; bypasses the FFT merge"
            ),
            kind="sweep",
            programs=("m88ksim",),
            scale=0.5,
            associativity=2,
            algorithms=("PH", "GBSC-SA"),
            runs=1,
            with_pair_db=True,
        ),
        WorkloadSpec(
            name="cold-profile",
            why=(
                "Table 1 cold path over all six programs x0.25: trace "
                "generation, profiling and store writes; nothing is placed"
            ),
            kind="cold",
            programs=("gcc", "go", "ghostscript", "m88ksim", "perl", "vortex"),
            scale=0.25,
            associativity=1,
            algorithms=("default",),
            with_pair_db=True,
        ),
    )
}

@dataclass(frozen=True)
class Metric:
    """One reported metric; *bound* is the share it may worsen by."""

    name: str
    unit: str
    better: str
    bound: float | None = None


#: User-visible metrics, reported with tracing off.
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("cells_per_s", "1/s", "higher", 0.25),
    Metric("events_per_s", "1/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)

#: Deterministic outputs: printed and compared (any change is a
#: verdict), but left out of ``BENCHMARK.json`` because they do not
#: vary run to run (``error_rate`` is 0) or vary with the seed by more
#: than any bound (``miss_rate``).
CHECKED: tuple[Metric, ...] = (
    Metric("miss_rate", "ratio", "lower", 0.0),
    Metric("error_rate", "ratio", "lower", 0.0),
)

#: Layer metrics of the traced pass that every workload exercises.
#: Self times of layers that some workload bypasses (for example
#: ``core.merge_nodes`` on ``cold-profile``) read exactly 0 there, so
#: they live only in ``<workload>.layers.json``; their call counts are
#: here.
PER_LAYER: tuple[Metric, ...] = (
    Metric("trace.random_call_graph.self_s", "s", "lower"),
    Metric("trace.generate_trace.self_s", "s", "lower"),
    Metric("trace.generate_trace.events", "count", "lower"),
    Metric("trace.get_or_generate_trace.self_s", "s", "lower"),
    Metric("profiles.select_popular.self_s", "s", "lower"),
    Metric("profiles.build_wcg.self_s", "s", "lower"),
    Metric("profiles.build_trgs.self_s", "s", "lower"),
    Metric("profiles.perturbed.calls", "count", "lower"),
    Metric("eval.build_context.self_s", "s", "lower"),
    Metric("core.merge_nodes.calls", "count", "lower"),
    Metric("core.merge_nodes_sa.calls", "count", "lower"),
    Metric("core.linearize.calls", "count", "lower"),
    Metric("cache.line_stream.self_s", "s", "lower"),
    Metric("cache.line_stream.lines", "count", "lower"),
    Metric("cache.simulate_stream.self_s", "s", "lower"),
    Metric("cache.simulate_stream.lines_per_s", "1/s", "higher"),
    Metric("store.get.calls", "count", "lower"),
    Metric("store.hit_ratio", "ratio", "higher"),
    Metric("store.put.calls", "count", "lower"),
    Metric("store.put.bytes", "bytes", "lower"),
    Metric("bench.unattributed_s", "s", "lower"),
    Metric("bench.trace_overhead", "ratio", "lower"),
)

#: Every metric ``compare`` knows a direction and bound for.
BY_NAME: dict[str, Metric] = {
    metric.name: metric for metric in (*END_TO_END, *CHECKED)
}
