"""TaskGuard: retry schedules, failure conversion, deadline, and
BaseException passthrough."""

import time

import pytest

from repro.errors import RunnerError, TaskTimeout, TransientTaskError
from repro.runner import TaskGuard, null_sleep
from repro.errors import SimulatedKill


def make_guard(**kwargs) -> tuple[TaskGuard, list[float]]:
    sleeps: list[float] = []
    kwargs.setdefault("retries", 2)
    kwargs.setdefault("backoff_base", 0.05)
    guard = TaskGuard("t:1", sleep=sleeps.append, **kwargs)
    return guard, sleeps


class TestSuccess:
    def test_value_returned(self):
        guard, sleeps = make_guard()
        outcome = guard.run(lambda attempt: {"value": 42})
        assert outcome.ok
        assert outcome.value == {"value": 42}
        assert outcome.retries == 0
        assert sleeps == []

    def test_attempt_index_passed(self):
        guard, _ = make_guard()
        seen: list[int] = []

        def body(attempt: int) -> dict:
            seen.append(attempt)
            return {}

        guard.run(body)
        assert seen == [0]


class TestTransientRetry:
    def test_retried_until_success(self):
        guard, sleeps = make_guard(retries=3)
        calls = []

        def body(attempt: int) -> dict:
            calls.append(attempt)
            if attempt < 2:
                raise TransientTaskError("flaky")
            return {"value": attempt}

        outcome = guard.run(body)
        assert outcome.ok
        assert outcome.retries == 2
        assert calls == [0, 1, 2]

    def test_backoff_schedule_is_deterministic(self):
        guard, sleeps = make_guard(retries=3, backoff_base=0.05)

        def body(attempt: int) -> dict:
            if attempt < 3:
                raise TransientTaskError("flaky")
            return {}

        assert guard.run(body).ok
        assert sleeps == [0.05, 0.1, 0.2]

    def test_budget_exhausted_is_transient_failure(self):
        guard, sleeps = make_guard(retries=2)

        def body(attempt: int) -> dict:
            raise TransientTaskError("still flaky")

        outcome = guard.run(body)
        assert not outcome.ok
        assert outcome.failure.transient
        assert outcome.failure.error_class == "TransientTaskError"
        assert outcome.retries == 2
        assert len(sleeps) == 2

    def test_zero_retries_never_sleeps(self):
        guard, sleeps = make_guard(retries=0)

        def body(attempt: int) -> dict:
            raise TransientTaskError("flaky")

        outcome = guard.run(body)
        assert not outcome.ok
        assert sleeps == []


class TestPermanentFailure:
    def test_exception_becomes_failure(self):
        guard, sleeps = make_guard()

        def body(attempt: int) -> dict:
            raise RunnerError("bad cell")

        outcome = guard.run(body)
        assert not outcome.ok
        assert not outcome.failure.transient
        assert outcome.failure.error_class == "RunnerError"
        assert outcome.failure.message == "bad cell"
        assert outcome.failure.key == "t:1"
        assert sleeps == []

    def test_timeout_raised_by_body_not_retried(self):
        guard, sleeps = make_guard()

        def body(attempt: int) -> dict:
            raise TaskTimeout("too slow")

        outcome = guard.run(body)
        assert not outcome.ok
        assert outcome.failure.error_class == "TaskTimeout"
        assert sleeps == []

    def test_failure_record_shape(self):
        guard, _ = make_guard()
        outcome = guard.run(
            lambda attempt: (_ for _ in ()).throw(ValueError("nan"))
        )
        record = outcome.failure.to_record()
        assert record["type"] == "task"
        assert record["status"] == "failed"
        assert record["error"] == "ValueError"
        assert record["transient"] is False


class TestDeadline:
    def test_overrunning_result_is_discarded(self):
        guard, _ = make_guard(deadline=0.0)
        outcome = guard.run(lambda attempt: {"value": 1})
        assert not outcome.ok
        assert outcome.value is None
        assert outcome.failure.error_class == "TaskTimeout"
        assert "soft deadline" in outcome.failure.message

    def test_generous_deadline_passes(self):
        guard, _ = make_guard(deadline=3600.0)
        assert guard.run(lambda attempt: {"value": 1}).ok


class TestNullSleep:
    def test_returns_immediately(self):
        start = time.monotonic()
        null_sleep(60.0)
        assert time.monotonic() - start < 1.0

    def test_schedule_and_retries_unchanged(self):
        """Skipping the wait must not change what is *recorded*: the
        retry count matches a real-sleeper guard's."""
        guard = TaskGuard(
            "t:1", retries=2, backoff_base=0.05, sleep=null_sleep
        )

        def body(attempt: int) -> dict:
            raise TransientTaskError("still flaky")

        outcome = guard.run(body)
        assert not outcome.ok
        assert outcome.retries == 2

    def test_default_sleep_is_real(self):
        guard = TaskGuard("t:1")
        assert guard._sleep is time.sleep


class TestBaseExceptionPassthrough:
    def test_keyboard_interrupt_escapes(self):
        guard, _ = make_guard()

        def body(attempt: int) -> dict:
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            guard.run(body)

    def test_simulated_kill_escapes(self):
        guard, _ = make_guard()

        def body(attempt: int) -> dict:
            raise SimulatedKill("power loss")

        with pytest.raises(SimulatedKill):
            guard.run(body)
