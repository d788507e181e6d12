"""TaskGuard: transient retry, failure conversion, and BaseException
passthrough."""

import pytest

from repro.errors import RunnerError, TaskTimeout, TransientTaskError
from repro.runner import DEFAULT_RETRIES, TaskGuard
from repro.errors import SimulatedKill


def make_guard(retries: int = 2) -> TaskGuard:
    return TaskGuard("t:1", retries=retries)


class TestSuccess:
    def test_value_returned(self):
        guard = make_guard()
        outcome = guard.run(lambda attempt: {"value": 42})
        assert outcome.ok
        assert outcome.value == {"value": 42}
        assert outcome.retries == 0

    def test_attempt_index_passed(self):
        guard = make_guard()
        seen: list[int] = []

        def body(attempt: int) -> dict:
            seen.append(attempt)
            return {}

        guard.run(body)
        assert seen == [0]


class TestTransientRetry:
    def test_retried_until_success(self):
        guard = make_guard(retries=3)
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

    def test_budget_exhausted_is_transient_failure(self):
        guard = TaskGuard("t:1")
        calls = []

        def body(attempt: int) -> dict:
            calls.append(attempt)
            raise TransientTaskError("still flaky")

        outcome = guard.run(body)
        assert not outcome.ok
        assert outcome.failure.transient
        assert outcome.failure.error_class == "TransientTaskError"
        assert outcome.retries == DEFAULT_RETRIES == 2
        assert calls == [0, 1, 2]

    def test_zero_retries_never_sleeps(self):
        """Retries are immediate; with none, one attempt is all."""
        guard = make_guard(retries=0)
        calls = []

        def body(attempt: int) -> dict:
            calls.append(attempt)
            raise TransientTaskError("flaky")

        outcome = guard.run(body)
        assert not outcome.ok
        assert outcome.retries == 0
        assert calls == [0]


class TestPermanentFailure:
    def test_exception_becomes_failure(self):
        guard = make_guard()
        calls = []

        def body(attempt: int) -> dict:
            calls.append(attempt)
            raise RunnerError("bad cell")

        outcome = guard.run(body)
        assert not outcome.ok
        assert not outcome.failure.transient
        assert outcome.failure.error_class == "RunnerError"
        assert outcome.failure.message == "bad cell"
        assert outcome.failure.key == "t:1"
        assert calls == [0]

    def test_timeout_raised_by_body_not_retried(self):
        guard = make_guard()
        calls = []

        def body(attempt: int) -> dict:
            calls.append(attempt)
            raise TaskTimeout("too slow")

        outcome = guard.run(body)
        assert not outcome.ok
        assert outcome.failure.error_class == "TaskTimeout"
        assert calls == [0]

    def test_failure_record_shape(self):
        guard = make_guard()
        outcome = guard.run(
            lambda attempt: (_ for _ in ()).throw(ValueError("nan"))
        )
        record = outcome.failure.to_record()
        assert record["type"] == "task"
        assert record["status"] == "failed"
        assert record["error"] == "ValueError"
        assert record["transient"] is False


class TestBaseExceptionPassthrough:
    def test_keyboard_interrupt_escapes(self):
        guard = make_guard()

        def body(attempt: int) -> dict:
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            guard.run(body)

    def test_simulated_kill_escapes(self):
        guard = make_guard()

        def body(attempt: int) -> dict:
            raise SimulatedKill("power loss")

        with pytest.raises(SimulatedKill):
            guard.run(body)
