"""``TaskGuard``: run one task, convert exceptions to structured data.

The guard is the failure boundary between a task body and the batch
engine.  It never lets an ordinary exception escape; instead every
attempt ends in one of

* a **value** — the task's JSON-able result payload;
* a :class:`TaskFailure` — error class, message, elapsed time, retry
  count and a transient flag;

with :class:`~repro.errors.TransientTaskError` retried up to a bound
under a *deterministic* backoff schedule (``base * 2**attempt`` — no
jitter, so a replayed run sleeps identically), and a *soft* per-task
deadline checked when the attempt completes (the runner is
single-threaded, so an overrunning task cannot be preempted — its
result is discarded and recorded as a :class:`~repro.errors.TaskTimeout`
failure instead).

``BaseException`` subclasses — ``KeyboardInterrupt`` and the fault
harness's :class:`~repro.errors.SimulatedKill` — deliberately
pass through: they model the process dying, which no guard survives.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import TaskTimeout, TransientTaskError
from repro.obs.clock import monotonic
from repro.resilience import (
    DEFAULT_BACKOFF,
    DEFAULT_RETRIES,
    DeadlinePolicy,
    RetryPolicy,
    null_sleep,
)

__all__ = [
    "DEFAULT_BACKOFF",
    "DEFAULT_RETRIES",
    "TaskFailure",
    "TaskGuard",
    "TaskOutcome",
    "null_sleep",
]


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
    """Execute one task body under retry/deadline/failure conversion.

    Retry and deadline arithmetic delegate to the shared policy
    objects in :mod:`repro.resilience`
    (:class:`~repro.resilience.RetryPolicy` /
    :class:`~repro.resilience.DeadlinePolicy`), so the runner, the
    store and the chaos layer agree on one backoff schedule.  *sleep*
    is injectable so tests (and fast replays) can observe the
    deterministic schedule without actually waiting.
    """

    def __init__(
        self,
        key: str,
        retries: int = DEFAULT_RETRIES,
        backoff_base: float = DEFAULT_BACKOFF,
        deadline: float | None = None,
        sleep: Callable[[float], None] | None = None,
    ) -> None:
        self.key = key
        self.retries = max(0, retries)
        self.backoff_base = backoff_base
        self.deadline = deadline
        self._retry = RetryPolicy(
            retries=self.retries, backoff_base=backoff_base
        )
        self._deadline = DeadlinePolicy(deadline)
        self._sleep = sleep if sleep is not None else time.sleep

    def backoff(self, attempt: int) -> float:
        """Deterministic delay before re-running *attempt* + 1."""
        return self._retry.delay(attempt)

    def run(
        self, attempt_fn: Callable[[int], dict[str, Any]]
    ) -> TaskOutcome:
        """Call ``attempt_fn(attempt_index)`` until success, a
        permanent failure, or the retry budget is spent."""
        started = monotonic()
        retries_used = 0
        for attempt in range(self._retry.attempts):
            attempt_started = monotonic()
            try:
                value = attempt_fn(attempt)
            except TaskTimeout as error:
                return self._failure(error, started, retries_used, False)
            except TransientTaskError as error:
                if attempt + 1 < self._retry.attempts:
                    retries_used += 1
                    self._sleep(self._retry.delay(attempt))
                    continue
                return self._failure(error, started, retries_used, True)
            except Exception as error:
                return self._failure(error, started, retries_used, False)
            attempt_elapsed = monotonic() - attempt_started
            if self._deadline.exceeded(attempt_elapsed):
                timeout = TaskTimeout(
                    f"task {self.key} took {attempt_elapsed:.3f}s, over "
                    f"its soft deadline of {self.deadline:.3f}s"
                )
                return self._failure(
                    timeout, started, retries_used, False
                )
            return TaskOutcome(
                key=self.key,
                value=value,
                failure=None,
                elapsed=monotonic() - started,
                retries=retries_used,
            )
        raise AssertionError("unreachable: retry loop always returns")

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
