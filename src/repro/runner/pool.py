"""Worker-process side of the parallel batch runner.

The pool backend keeps the engine's durability story intact by
splitting its responsibilities across the process boundary:

* the **parent** (:class:`~repro.runner.engine.BatchRunner`) remains
  the only process that appends to ``checkpoint.jsonl`` or writes
  artifact files — the *single-writer invariant*.  The shared
  :class:`~repro.store.ArtifactStore` (``--cache``) follows the same
  rule: workers inherit it through fork but its owner-pid gate makes
  their copies read-only, so they serve cache hits without ever
  touching the index; only the parent persists newly built blobs;
* each **worker** executes task bodies under the usual
  :class:`~repro.runner.guard.TaskGuard` and sends back a picklable
  :class:`WorkerResult`: the JSON payload (or a structured
  :class:`~repro.runner.guard.TaskFailure`), the retry count, a
  metrics-registry shard and flattened span timings for the parent to
  merge into its run manifest.

Workers are started with the ``fork`` start method, so the
:class:`~repro.runner.tasks.Batch` — whose task bodies are closures,
deliberately not picklable — is inherited through forked memory via
the pool initializer rather than serialised.  The initializer also
gives each worker one private :class:`~repro.runner.tasks.RunnerEnv`,
so heavy derived state (profiled contexts, loaded traces) is built at
most once per worker and memoised across every task that worker runs.

Fault-plan semantics under the pool: the parent installs its plan
before forking, so each worker inherits its own copy.  The
``runner.task`` site fires inside workers (a task-addressed injection
behaves exactly as in a serial run, since each task executes in
exactly one process), while ``runner.artifact`` fires in the parent,
which performs all artifact writes.  Process-death faults
(``KeyboardInterrupt``, :class:`~repro.errors.SimulatedKill`) cannot
cross the pickle boundary as exceptions without losing their type, so
workers catch them and return a ``died`` marker; the parent re-raises
the original type after tearing the pool down, keeping the CLI exit
codes (130 / 137) identical to serial runs.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import RunnerError
from repro.obs import runtime as obs_runtime
from repro.runner.guard import TaskFailure, TaskGuard
from repro.runner.tasks import Batch, RunnerEnv


@dataclass(frozen=True)
class WorkerResult:
    """Picklable outcome of one task executed in a worker process.

    Exactly one of three shapes: a value (``value`` set), a structured
    failure (``failure`` set), or a process-death marker (``died``
    names the ``BaseException`` type the task body raised).
    """

    key: str
    pid: int
    value: dict[str, Any] | None = None
    failure: TaskFailure | None = None
    elapsed: float = 0.0
    retries: int = 0
    metrics: dict[str, dict[str, Any]] = field(default_factory=dict)
    phases: dict[str, float] = field(default_factory=dict)
    died: str | None = None
    died_message: str = ""


#: Per-worker state installed by :func:`initialize_worker`.  A module
#: global is safe here: each forked worker mutates only its own copy.
_WORKER: dict[str, Any] = {}


def fork_context():
    """The ``fork`` multiprocessing context the pool requires.

    Only ``fork`` lets workers inherit the un-picklable batch closures
    (and any state the calling process set up, e.g. test fixtures)
    through copied memory.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError as error:
        raise RunnerError(
            "--workers needs the 'fork' start method, which this "
            "platform does not provide; run serially instead"
        ) from error


def initialize_worker(
    batch: Batch,
    retries: int,
    backoff_base: float,
    deadline: float | None,
    sleep: Callable[[float], None] | None,
) -> None:
    """Pool initializer: runs once in each worker, right after fork."""
    # The parent's observability state (an enabled CLI run session) was
    # inherited by the fork; workers must not double-record into it.
    # Each task instead runs under a fresh private state whose snapshot
    # travels back to the parent as a metrics shard.
    obs_runtime.disable()
    _WORKER["batch"] = batch
    _WORKER["env"] = RunnerEnv()
    _WORKER["retries"] = retries
    _WORKER["backoff_base"] = backoff_base
    _WORKER["deadline"] = deadline
    _WORKER["sleep"] = sleep


def _flatten_phase_timings(
    roots, totals: dict[str, float]
) -> None:
    """Total duration per span name over a whole span forest (nested
    spans contribute to both their own and enclosing names)."""
    for record in roots:
        totals[record.name] = (
            totals.get(record.name, 0.0) + record.duration
        )
        _flatten_phase_timings(record.children, totals)


def execute_task(key: str) -> WorkerResult:
    """Run one task body in this worker process.

    Always *returns* — ordinary exceptions become
    :class:`TaskFailure` via the guard, and process-death
    ``BaseException``\\ s become a ``died`` marker — so the pool's
    result channel never has to pickle an exception.
    """
    batch: Batch = _WORKER["batch"]
    spec = batch.spec(key)
    env: RunnerEnv = _WORKER["env"]
    guard = TaskGuard(
        spec.key,
        retries=(
            spec.retries
            if spec.retries is not None
            else _WORKER["retries"]
        ),
        backoff_base=_WORKER["backoff_base"],
        deadline=(
            spec.deadline
            if spec.deadline is not None
            else _WORKER["deadline"]
        ),
        sleep=_WORKER["sleep"],
    )
    state = obs_runtime.enable()
    try:
        with obs_runtime.span(
            "runner.task", key=spec.key, kind=spec.kind
        ):
            outcome = guard.run(lambda attempt: spec.execute(env))
    except BaseException as error:  # KeyboardInterrupt / SimulatedKill
        return WorkerResult(
            key=key,
            pid=os.getpid(),
            died=type(error).__name__,
            died_message=str(error),
        )
    finally:
        obs_runtime.disable()
    phases: dict[str, float] = {}
    _flatten_phase_timings(state.tracer.roots, phases)
    return WorkerResult(
        key=key,
        pid=os.getpid(),
        value=outcome.value,
        failure=outcome.failure,
        elapsed=outcome.elapsed,
        retries=outcome.retries,
        metrics=state.registry.snapshot(),
        phases=phases,
    )
