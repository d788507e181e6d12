"""The fault-tolerant batch execution engine.

:class:`BatchRunner` drives a :class:`~repro.runner.tasks.Batch`
through to a report the way a database drives a transaction log:

* every completed task is **journaled** (fsync per record) to
  ``checkpoint.jsonl`` with its payload inline — the one durable
  write per task;
* ``resume=True`` replays the journal, verifies the grid fingerprint,
  and executes only what is left — reproducing the uninterrupted
  run's report byte for byte;
* failures are data, not crashes: each task runs under a
  :class:`~repro.runner.guard.TaskGuard`, so the batch finishes in
  degraded mode with a failure table, and previously-failed tasks are
  retried on the next resume;
* ``KeyboardInterrupt`` and the fault harness's
  :class:`~repro.errors.SimulatedKill` propagate — the journal is
  already durable, so the process can die at any instant;
* a :class:`~repro.chaos.plan.FaultPlan` is installed process-wide
  for the run, so its injections fire at the ``runner.task`` and
  write sites.

Tasks run one after another in batch order, so journal records and
the failure table — and therefore the report — are deterministic.

:func:`run_in_process` runs the same tasks with no checkpoint
directory: no journal, no guard, and a task's error
propagates.  Both render the report with ``Batch.render``.
"""

from __future__ import annotations

import json
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

from repro import obs
from repro.chaos import sites
from repro.chaos.plan import FaultPlan
from repro.errors import RunnerError
from repro.obs.clock import wall_time
from repro.runner.guard import TaskFailure, TaskGuard
from repro.runner.journal import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    JOURNAL_NAME,
    CheckpointJournal,
    JournalState,
    load_journal,
)
from repro.runner.tasks import Batch, RunnerEnv, TaskSpec


@dataclass(frozen=True)
class BatchOutcome:
    """Everything a finished (possibly degraded) batch produced."""

    results: Mapping[str, dict[str, Any]]
    failures: tuple[TaskFailure, ...]
    pending: tuple[str, ...]
    executed: int
    cached: int
    report: str

    @property
    def ok(self) -> bool:
        return not self.failures and not self.pending

    @property
    def exit_code(self) -> int:
        """The CLI contract: 0 clean, 1 degraded (failures/unrun
        tasks)."""
        return 0 if self.ok else 1


def format_failure_table(failures: tuple[TaskFailure, ...]) -> str:
    """Deterministic failure table (no wall-clock columns, so degraded
    reports are reproducible too)."""
    lines = ["failures:"]
    for failure in failures:
        kind = "transient" if failure.transient else "permanent"
        lines.append(
            f"  {failure.key}: {failure.error_class} ({kind}, "
            f"retries={failure.retries}): {failure.message}"
        )
    return "\n".join(lines)


def run_in_process(batch: Batch) -> BatchOutcome:
    """Run every task of *batch* in batch order in this process.

    Nothing is journaled and nothing retried: the first task error
    propagates to the caller.  The ``runner.batch``/``runner.task``
    spans match :class:`BatchRunner`'s.
    """
    env = RunnerEnv()
    results: dict[str, dict[str, Any]] = {}
    with obs.span(
        "runner.batch",
        command=batch.command,
        grid=batch.grid_id,
        tasks=len(batch.tasks),
    ):
        for spec in batch.tasks:
            with obs.span("runner.task", key=spec.key, kind=spec.kind):
                results[spec.key] = spec.execute(env)
    return BatchOutcome(
        results=results,
        failures=(),
        pending=(),
        executed=len(batch.tasks),
        cached=0,
        report=batch.render(results),
    )


class BatchRunner:
    """Execute one batch against a checkpoint directory."""

    def __init__(
        self,
        batch: Batch,
        checkpoint_dir: str | Path,
        resume: bool = False,
        max_failures: int | None = None,
        plan: FaultPlan | None = None,
        echo: Callable[[str], None] | None = None,
        store: Any = None,
    ) -> None:
        if max_failures is not None and max_failures < 0:
            raise RunnerError(
                f"--max-failures must be >= 0, got {max_failures}"
            )
        self.batch = batch
        # One artifact store is shared by every grid cell.  The runner
        # itself only publishes its gauges; the cache-aware builders
        # inside the tasks do the lookups.
        self.store = store
        self.directory = Path(checkpoint_dir)
        self.resume = resume
        self.max_failures = max_failures
        self.plan = plan
        self._echo = echo

    # ------------------------------------------------------------------
    # Resume bookkeeping
    # ------------------------------------------------------------------

    @property
    def journal_path(self) -> Path:
        return self.directory / JOURNAL_NAME

    def _load_checkpoint(self) -> dict[str, dict[str, Any]]:
        """Payloads of previously-completed tasks, keyed by task key.

        Raises when the journal belongs to a *different* grid — a
        checkpoint must never be silently replayed against other
        parameters.  Records carry their payload inline; a legacy
        record that points at an ``artifact`` file instead is dropped
        (the task re-runs) when that file is missing or unreadable.
        """
        state: JournalState = load_journal(self.journal_path)
        header = state.header
        if header is None:
            raise RunnerError(
                f"{self.journal_path} has no batch header; not a "
                "checkpoint journal this runner can resume"
            )
        if header.get("format") != CHECKPOINT_FORMAT:
            raise RunnerError(
                f"{self.journal_path} is not a {CHECKPOINT_FORMAT!r} "
                f"journal (found {header.get('format')!r})"
            )
        if header.get("grid") != self.batch.grid_id:
            raise RunnerError(
                f"checkpoint {self.journal_path} was written for grid "
                f"{header.get('grid')!r}, but this invocation is grid "
                f"{self.batch.grid_id!r} — the workload, cache or run "
                "parameters changed; use a fresh checkpoint directory"
            )
        payloads: dict[str, dict[str, Any]] = {}
        known = {task.key for task in self.batch.tasks}
        for key, entry in state.completed().items():
            if key not in known:
                continue
            payload = entry.get("payload")
            artifact = entry.get("artifact")
            if artifact is not None:
                try:
                    payload = json.loads(
                        (self.directory / artifact).read_text(
                            encoding="utf-8"
                        )
                    )
                except (OSError, UnicodeDecodeError, ValueError):
                    continue
            if isinstance(payload, dict):
                payloads[key] = payload
        return payloads

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _say(self, line: str) -> None:
        if self._echo is not None:
            self._echo(line)

    # ------------------------------------------------------------------
    # Journaling
    # ------------------------------------------------------------------

    def _journal_ok(
        self,
        journal: CheckpointJournal,
        spec: TaskSpec,
        value: dict[str, Any],
        elapsed: float,
        retries: int,
        results: dict[str, dict[str, Any]],
    ) -> None:
        journal.append(
            {
                "type": "task",
                "key": spec.key,
                "kind": spec.kind,
                "status": "ok",
                "elapsed": elapsed,
                "retries": retries,
                "payload": value,
            }
        )
        results[spec.key] = value
        obs.inc("runner.task.completed")
        self._say(f"[runner] ok      {spec.key}")

    def _journal_failure(
        self,
        journal: CheckpointJournal,
        spec: TaskSpec,
        failure: TaskFailure,
        failures: list[TaskFailure],
    ) -> None:
        record = failure.to_record()
        record["kind"] = spec.kind
        journal.append(record)
        failures.append(failure)
        obs.inc("runner.task.failures")
        self._say(
            f"[runner] failed  {spec.key}: "
            f"{failure.error_class}: {failure.message}"
        )

    def _run_tasks(
        self,
        journal: CheckpointJournal,
        env: RunnerEnv,
        completed: dict[str, dict[str, Any]],
        results: dict[str, dict[str, Any]],
        failures: list[TaskFailure],
        pending: list[str],
    ) -> tuple[int, int]:
        executed = 0
        cached = 0
        for spec in self.batch.tasks:
            if spec.key in completed:
                results[spec.key] = completed[spec.key]
                cached += 1
                obs.inc("runner.task.cached")
                self._say(f"[runner] cached  {spec.key}")
                continue
            if (
                self.max_failures is not None
                and len(failures) > self.max_failures
            ):
                pending.append(spec.key)
                continue
            with obs.span(
                "runner.task", key=spec.key, kind=spec.kind
            ):
                outcome = TaskGuard(spec.key).run(
                    lambda _attempt: spec.execute(env)
                )
            executed += 1
            if outcome.retries:
                obs.inc("runner.task.retries", outcome.retries)
            if outcome.ok:
                self._journal_ok(
                    journal,
                    spec,
                    outcome.value,
                    outcome.elapsed,
                    outcome.retries,
                    results,
                )
            else:
                self._journal_failure(
                    journal, spec, outcome.failure, failures
                )
        return executed, cached

    def run(self) -> BatchOutcome:
        """Execute the batch; returns a degraded-mode-aware outcome.

        ``KeyboardInterrupt``/:class:`SimulatedKill` propagate to the
        caller after the journal handle is closed — every completed
        task is already durable.
        """
        completed: dict[str, dict[str, Any]] = {}
        fresh = not self.journal_path.exists()
        if not fresh:
            if not self.resume:
                raise RunnerError(
                    f"{self.journal_path} already holds a checkpoint "
                    "journal; pass --resume to continue it or point "
                    "--checkpoint at a fresh directory"
                )
            state = load_journal(self.journal_path)
            if state.header is None and not state.entries:
                # A crash before the batch header became durable left
                # only a torn (or empty) tail; appending a header after
                # it would corrupt the file, so drop the husk and
                # resume as a fresh run.
                with suppress(OSError):
                    self.journal_path.unlink()
                fresh = True
            else:
                completed = self._load_checkpoint()
        results: dict[str, dict[str, Any]] = {}
        failures: list[TaskFailure] = []
        pending: list[str] = []
        executed = 0
        cached = 0
        journal = CheckpointJournal(self.journal_path)
        env = RunnerEnv()
        try:
            with sites.installed(self.plan), obs.span(
                "runner.batch",
                command=self.batch.command,
                grid=self.batch.grid_id,
                tasks=len(self.batch.tasks),
            ):
                if fresh:
                    journal.append(
                        {
                            "type": "batch",
                            "format": CHECKPOINT_FORMAT,
                            "version": CHECKPOINT_VERSION,
                            "command": self.batch.command,
                            "grid": self.batch.grid_id,
                            "tasks": len(self.batch.tasks),
                            "metadata": dict(self.batch.metadata),
                            "unix_time": wall_time(),
                        }
                    )
                executed, cached = self._run_tasks(
                    journal, env, completed, results, failures, pending
                )
        finally:
            journal.close()
        obs.set_gauge("runner.task.pending", len(pending))
        if self.store is not None:
            self.store.record_metrics()
            self._say(
                f"[store] {self.store.hits} hit(s), "
                f"{self.store.misses} miss(es) in {self.store.root}"
            )
        report_lines = [self.batch.render(results)]
        if failures:
            report_lines.append("")
            report_lines.append(format_failure_table(tuple(failures)))
        if pending:
            report_lines.append("")
            report_lines.append(
                f"aborted after {len(failures)} failure(s) "
                f"(--max-failures {self.max_failures}): "
                f"{len(pending)} task(s) not attempted"
            )
        return BatchOutcome(
            results=results,
            failures=tuple(failures),
            pending=tuple(pending),
            executed=executed,
            cached=cached,
            report="\n".join(report_lines),
        )
