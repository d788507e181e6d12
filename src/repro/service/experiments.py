"""Experiment-shaped service entry points: ``compare`` and Table 1.

Both experiments run one way: as a :mod:`repro.runner` task grid.
:func:`build_compare_batch`/:func:`build_table1_batch` build the grid
and :func:`execute_batch` runs it, in process or, given a checkpoint
directory, through the journaling :class:`~repro.runner.BatchRunner`.
Either way the report is ``Batch.render`` over the task payloads, so
plain, checkpointed and resumed runs print the same bytes.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from repro.errors import RunnerError
from repro.runner import (
    JOURNAL_NAME,
    BatchOutcome,
    BatchRunner,
    FaultPlan,
    compare_batch,
    run_in_process,
    table1_batch,
)
from repro.runner.tasks import Batch
from repro.service.requests import CompareRequest, Table1Request
from repro.store import ArtifactStore
from repro.workloads.suite import SUITE

__all__ = [
    "build_compare_batch",
    "build_table1_batch",
    "check_runner_flags",
    "execute_batch",
    "has_journal",
]


def _suite(fast: bool):
    """The Table 1 suite, 4x shorter under *fast*."""
    return [workload.scaled(0.25) if fast else workload for workload in SUITE]


def build_compare_batch(request: CompareRequest) -> Batch:
    """The ``compare`` grid over one workload (Figure 5 with
    ``runs > 0``); rejects an invalid *request* first."""
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


def check_runner_flags(
    checkpoint: str | Path | None,
    *,
    resume: bool = False,
    plan: object = None,
    max_failures: int | None = None,
) -> None:
    """Raise :class:`~repro.errors.RunnerError` when *resume*, a fault
    *plan* (or the path of one) or *max_failures* is given without a
    *checkpoint* directory, since all three act on its journal."""
    if checkpoint is None and (
        resume or plan is not None or max_failures is not None
    ):
        raise RunnerError(
            "--resume/--inject/--max-failures require --checkpoint DIR"
        )


def has_journal(checkpoint: str | Path | None) -> bool:
    """True when *checkpoint* names a directory holding a batch journal,
    which ``--resume`` can continue."""
    if checkpoint is None:
        return False
    return (Path(checkpoint) / JOURNAL_NAME).is_file()


def execute_batch(
    batch: Batch,
    checkpoint: str | Path | None = None,
    *,
    resume: bool = False,
    max_failures: int | None = None,
    plan: FaultPlan | None = None,
    store: ArtifactStore | None = None,
    echo: Callable[[str], None] | None = None,
) -> BatchOutcome:
    """Run *batch*, journaling every task into *checkpoint* if given.

    Without a checkpoint directory the tasks run in process and a task
    error propagates; *resume*, *plan* and *max_failures* need one
    (see :func:`check_runner_flags`).
    """
    check_runner_flags(
        checkpoint, resume=resume, plan=plan, max_failures=max_failures
    )
    if checkpoint is None:
        return run_in_process(batch)
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
