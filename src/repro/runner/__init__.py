"""Fault-tolerant batch execution for the experiment grids.

The paper's Section 5 numbers come from hundreds of (workload ×
cache-config × algorithm × perturbation-seed) cells; this package
makes those long batches survive failure instead of restarting from
zero:

* :mod:`~repro.runner.tasks` — grids decomposed into addressable
  tasks with stable keys and a content-addressed grid fingerprint;
* :mod:`~repro.runner.journal` — a crash-safe (fsync-per-record,
  torn-tail-tolerant) JSONL checkpoint journal;
* :mod:`~repro.runner.guard` — per-task failure boundary: structured
  :class:`TaskFailure` records, bounded deterministic retry for
  transient errors, soft deadlines;
* :mod:`~repro.runner.engine` — :class:`BatchRunner`: executes a
  batch, checkpoints each task, resumes idempotently
  (``--resume``) and finishes in degraded mode with a failure table;
  it installs a :class:`~repro.chaos.plan.FaultPlan` (re-exported
  here) for the run, whose task injections fire at the
  ``runner.task`` site.

Usage::

    from repro.runner import BatchRunner, compare_batch

    batch = compare_batch(workload, config, runs=40)
    outcome = BatchRunner(batch, "ckpt", resume=True).run()
    print(outcome.report)
    sys.exit(outcome.exit_code)
"""

from repro.chaos.plan import (
    ERROR_KINDS,
    FAULTPLAN_FORMAT,
    FAULTPLAN_VERSION,
    FaultPlan,
    Injection,
    load_plan,
)
from repro.errors import SimulatedKill
from repro.runner.engine import (
    BatchOutcome,
    BatchRunner,
    format_failure_table,
)
from repro.runner.grids import (
    compare_batch,
    default_algorithms,
    table1_batch,
)
from repro.runner.guard import (
    DEFAULT_BACKOFF,
    DEFAULT_RETRIES,
    TaskFailure,
    TaskGuard,
    TaskOutcome,
    null_sleep,
)
from repro.runner.journal import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    JOURNAL_NAME,
    CheckpointJournal,
    JournalState,
    load_journal,
)
from repro.runner.tasks import (
    Batch,
    RunnerEnv,
    TaskSpec,
    grid_fingerprint,
)

__all__ = [
    "Batch",
    "BatchOutcome",
    "BatchRunner",
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "CheckpointJournal",
    "DEFAULT_BACKOFF",
    "DEFAULT_RETRIES",
    "ERROR_KINDS",
    "FAULTPLAN_FORMAT",
    "FAULTPLAN_VERSION",
    "FaultPlan",
    "Injection",
    "JOURNAL_NAME",
    "JournalState",
    "RunnerEnv",
    "SimulatedKill",
    "TaskFailure",
    "TaskGuard",
    "TaskOutcome",
    "TaskSpec",
    "compare_batch",
    "default_algorithms",
    "format_failure_table",
    "grid_fingerprint",
    "load_journal",
    "load_plan",
    "null_sleep",
    "table1_batch",
]
