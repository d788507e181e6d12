"""``TaskGuard``: run one task, convert exceptions to structured data.

The guard is the failure boundary between a task body and the batch
engine.  It never lets an ordinary exception escape; instead every
task ends in one of

* a **value** — the task's JSON-able result payload;
* a :class:`TaskFailure` — error class, message, elapsed time, retry
  count and a transient flag;

with :class:`~repro.errors.TransientTaskError` retried at once, up to
a bound.

``BaseException`` subclasses — ``KeyboardInterrupt`` and the fault
harness's :class:`~repro.errors.SimulatedKill` — deliberately
pass through: they model the process dying, which no guard survives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import TransientTaskError
from repro.obs.clock import monotonic

__all__ = [
    "DEFAULT_RETRIES",
    "TaskFailure",
    "TaskGuard",
    "TaskOutcome",
]

#: Times a task is re-run after a transient error before it fails.
DEFAULT_RETRIES = 2


@dataclass(frozen=True)
class TaskFailure:
    """Structured record of one task that did not produce a result."""

    key: str
    error_class: str
    message: str
    elapsed: float
    retries: int
    transient: bool

    def to_record(self) -> dict[str, Any]:
        """Journal rendering (status merged in by the engine)."""
        return {
            "type": "task",
            "key": self.key,
            "status": "failed",
            "error": self.error_class,
            "message": self.message,
            "elapsed": self.elapsed,
            "retries": self.retries,
            "transient": self.transient,
        }


@dataclass(frozen=True)
class TaskOutcome:
    """What one guarded task produced: a value or a failure."""

    key: str
    value: dict[str, Any] | None
    failure: TaskFailure | None
    elapsed: float
    retries: int

    @property
    def ok(self) -> bool:
        return self.failure is None


class TaskGuard:
    """Execute one task body, retrying transient errors."""

    def __init__(self, key: str, retries: int = DEFAULT_RETRIES) -> None:
        self.key = key
        self.retries = max(0, retries)

    def run(
        self, attempt_fn: Callable[[int], dict[str, Any]]
    ) -> TaskOutcome:
        """Call ``attempt_fn(attempt_index)`` until success, a
        permanent failure, or the retry budget is spent."""
        started = monotonic()
        attempt = 0
        while True:
            try:
                value = attempt_fn(attempt)
            except TransientTaskError as error:
                if attempt < self.retries:
                    attempt += 1
                    continue
                return self._failure(error, started, attempt, True)
            except Exception as error:
                return self._failure(error, started, attempt, False)
            return TaskOutcome(
                key=self.key,
                value=value,
                failure=None,
                elapsed=monotonic() - started,
                retries=attempt,
            )

    def _failure(
        self,
        error: BaseException,
        started: float,
        retries: int,
        transient: bool,
    ) -> TaskOutcome:
        elapsed = monotonic() - started
        failure = TaskFailure(
            key=self.key,
            error_class=type(error).__name__,
            message=str(error),
            elapsed=elapsed,
            retries=retries,
            transient=transient,
        )
        return TaskOutcome(
            key=self.key,
            value=None,
            failure=failure,
            elapsed=elapsed,
            retries=retries,
        )
