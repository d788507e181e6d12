"""Experiment-shaped service entry points: compare, Table 1, batches.

``run_compare``/``run_table1`` are the direct (in-process) paths the
CLI used to inline; their progress lines go through an injectable
*echo* callback so ``repro-layout`` output stays byte-identical while
library callers get structured results back.  The batch variants
reuse the :mod:`repro.runner` grids unchanged — a batch built here is
fingerprint-compatible with one built by the pre-service CLI, so
existing checkpoints resume across the refactor.
"""

from __future__ import annotations

from typing import Callable

from repro import obs
from repro.cache.stats import MissStats
from repro.eval.experiment import build_context, place_and_simulate
from repro.eval.randomization import perturbation_sweep, summarize
from repro.eval.reporting import Table1Row, table1_row
from repro.runner import (
    BatchOutcome,
    BatchRunner,
    FaultPlan,
    compare_batch,
    default_algorithms,
    table1_batch,
)
from repro.runner.tasks import Batch
from repro.service.requests import CompareRequest, Table1Request
from repro.store import ArtifactStore
from repro.workloads.suite import SUITE

__all__ = [
    "build_compare_batch",
    "build_table1_batch",
    "execute_batch",
    "run_compare",
    "run_table1",
]

Echo = Callable[[str], None]


def _silent(_line: str) -> None:
    return None


def _suite(fast: bool):
    """The Table 1 suite, 4x shorter under *fast*."""
    return [workload.scaled(0.25) if fast else workload for workload in SUITE]


def run_compare(
    request: CompareRequest, echo: Echo | None = None
) -> list[tuple[str, MissStats]] | str:
    """Compare the paper's four algorithms on one workload.

    With ``runs == 0`` returns ``[(algorithm name, test-trace
    MissStats), ...]`` for a single clean run per algorithm; with
    ``runs > 0`` runs the perturbation sweep and returns its summary
    text.  Progress lines are emitted through *echo* exactly as the
    CLI prints them.
    """
    request.validate()
    emit = echo if echo is not None else _silent
    workload = request.resolve_workload()
    train = workload.trace("train", store=request.store)
    test = workload.trace("test", store=request.store)
    emit(f"profiling {workload.name} (train: {len(train)} events) ...")
    context = build_context(train, request.config, store=request.store)
    emit(
        f"popular procedures: {len(context.popular)} "
        f"of {len(context.program)}"
    )
    algorithms = default_algorithms()
    if request.runs > 0:
        results = perturbation_sweep(
            context, test, algorithms, runs=request.runs
        )
        summary = summarize(results)
        emit(summary)
        return summary
    scored: list[tuple[str, MissStats]] = []
    for algorithm in algorithms:
        outcome = place_and_simulate(context, test, algorithm)
        emit(f"{outcome.algorithm:<10} miss rate {outcome.miss_rate:.4%}")
        scored.append((outcome.algorithm, outcome.stats))
    return scored


def run_table1(
    request: Table1Request, echo: Echo | None = None
) -> list[Table1Row]:
    """Compute the Table 1 analog rows for the whole suite."""
    del echo  # the direct path narrates through obs spans only
    rows: list[Table1Row] = []
    for workload in _suite(request.fast):
        with obs.span("workload", workload=workload.name):
            train = workload.trace("train", store=request.store)
            test = workload.trace("test", store=request.store)
            context = build_context(
                train, request.config, store=request.store
            )
            rows.append(table1_row(workload.name, context, len(train), test))
    return rows


def build_compare_batch(request: CompareRequest) -> Batch:
    """The ``compare`` grid, exactly as the CLI shells it out.

    Validates like :func:`run_compare`, so both paths reject the same
    requests with the same message.
    """
    request.validate()
    return compare_batch(
        request.resolve_workload(),
        request.config,
        runs=request.runs,
        extra_config={"fast": request.fast},
        store=request.store,
    )


def build_table1_batch(request: Table1Request) -> Batch:
    """The ``table1`` grid over the (optionally fast-scaled) suite."""
    return table1_batch(
        _suite(request.fast),
        request.config,
        extra_config={"fast": request.fast},
        store=request.store,
    )

def execute_batch(
    batch: Batch,
    checkpoint: str,
    *,
    resume: bool = False,
    max_failures: int | None = None,
    plan: FaultPlan | None = None,
    store: ArtifactStore | None = None,
    echo: Echo | None = None,
) -> BatchOutcome:
    """Run *batch* through the fault-tolerant checkpointing runner."""
    runner = BatchRunner(
        batch,
        checkpoint,
        resume=resume,
        max_failures=max_failures,
        plan=plan,
        echo=echo,
        store=store,
    )
    return runner.run()
