"""Evaluation harness: experiments, metrics, sweeps and reporting."""

from repro.eval.experiment import (
    AlgorithmOutcome,
    ExperimentResult,
    build_context,
    place_and_simulate,
    run_experiment,
    run_workload_experiment,
)
from repro.eval.metrics import (
    damage_layout,
    pearson_r,
    trg_conflict_metric,
    wcg_conflict_metric,
)
from repro.eval.randomization import (
    PAPER_RUNS,
    SweepResult,
    dominates,
    overlap_fraction,
    perturbation_sweep,
    summarize,
)
from repro.eval.asciiplot import Series, ascii_cdf, sweep_panel
from repro.eval.crossval import TransferMatrix, input_transfer_matrix
from repro.eval.significance import (
    BootstrapInterval,
    RankTestResult,
    bootstrap_median_difference,
    compare_sweeps,
    mann_whitney_less,
)
from repro.eval.memory import (
    PageStats,
    capacity_bound_fraction,
    page_stats,
    reuse_distance_histogram,
)
from repro.eval.visualize import (
    cache_occupancy_map,
    conflict_histogram,
    layout_table,
)
from repro.eval.reporting import (
    Table1Row,
    format_figure5_panel,
    format_scatter,
    format_table1,
)

__all__ = [
    "AlgorithmOutcome",
    "BootstrapInterval",
    "ExperimentResult",
    "PAPER_RUNS",
    "PageStats",
    "RankTestResult",
    "Series",
    "SweepResult",
    "Table1Row",
    "TransferMatrix",
    "ascii_cdf",
    "bootstrap_median_difference",
    "build_context",
    "cache_occupancy_map",
    "capacity_bound_fraction",
    "conflict_histogram",
    "damage_layout",
    "dominates",
    "format_figure5_panel",
    "format_scatter",
    "format_table1",
    "input_transfer_matrix",
    "layout_table",
    "mann_whitney_less",
    "overlap_fraction",
    "page_stats",
    "pearson_r",
    "perturbation_sweep",
    "place_and_simulate",
    "reuse_distance_histogram",
    "run_experiment",
    "run_workload_experiment",
    "summarize",
    "sweep_panel",
    "trg_conflict_metric",
    "wcg_conflict_metric",
]
