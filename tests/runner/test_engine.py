"""BatchRunner: checkpointing, resume invariance, degraded mode; and
``run_in_process``, the same batch with no checkpoint directory.

Uses synthetic batches (no workloads) so each test runs in
milliseconds; the CLI-level tests in ``test_cli_runner.py`` cover the
real grids.
"""

import json

import pytest

from repro.chaos.plan import Injection
from repro.errors import RunnerError, SimulatedCrash
from repro.obs import RunSession
from repro.runner import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    JOURNAL_NAME,
    Batch,
    BatchRunner,
    FaultPlan,
    Injection,
    SimulatedKill,
    TaskSpec,
    load_journal,
    run_in_process,
)
from repro.service import execute_batch


def make_batch(
    n: int = 3, grid: str = "grid-a", calls: list | None = None
) -> Batch:
    tasks = []
    for index in range(1, n + 1):
        def body(env, index=index):
            if calls is not None:
                calls.append(f"t:{index}")
            return {"value": index * 10}

        tasks.append(TaskSpec(key=f"t:{index}", kind="unit", run=body))

    def render(results):
        if not results:
            return "empty"
        return "\n".join(
            f"{key}={results[key]['value']}" for key in sorted(results)
        )

    return Batch(
        command="test",
        grid_id=grid,
        tasks=tuple(tasks),
        render=render,
        metadata={"n": n},
    )


def legacy_checkpoint(directory) -> None:
    """A journal of :func:`make_batch`'s tasks as runners that wrote
    one JSON artifact per task left it: each ok record names its
    artifact file instead of carrying the payload."""
    directory.mkdir(parents=True, exist_ok=True)
    lines = [
        {"type": "batch", "format": CHECKPOINT_FORMAT,
         "version": CHECKPOINT_VERSION, "command": "test",
         "grid": "grid-a", "tasks": 3, "metadata": {"n": 3}},
    ]
    for index in (1, 2, 3):
        artifact = f"t{index}.json"
        (directory / artifact).write_text(
            json.dumps({"value": index * 10}, indent=2) + "\n"
        )
        lines.append(
            {"type": "task", "key": f"t:{index}", "kind": "unit",
             "status": "ok", "elapsed": 0.0, "retries": 0,
             "artifact": artifact}
        )
    (directory / JOURNAL_NAME).write_text(
        "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)
    )


class TestCleanRun:
    def test_all_tasks_complete(self, tmp_path):
        outcome = BatchRunner(make_batch(), tmp_path).run()
        assert outcome.ok
        assert outcome.exit_code == 0
        assert outcome.executed == 3
        assert outcome.cached == 0
        assert outcome.report == "t:1=10\nt:2=20\nt:3=30"

    def test_payloads_journaled_inline(self, tmp_path):
        BatchRunner(make_batch(), tmp_path).run()
        assert [path.name for path in tmp_path.iterdir()] == [JOURNAL_NAME]
        state = load_journal(tmp_path / JOURNAL_NAME)
        assert {
            key: entry["payload"] for key, entry in state.completed().items()
        } == {"t:1": {"value": 10}, "t:2": {"value": 20}, "t:3": {"value": 30}}

    def test_journal_records(self, tmp_path):
        batch = make_batch()
        BatchRunner(batch, tmp_path).run()
        state = load_journal(tmp_path / "checkpoint.jsonl")
        assert state.header["grid"] == "grid-a"
        assert state.header["tasks"] == 3
        assert set(state.completed()) == {"t:1", "t:2", "t:3"}

    def test_existing_journal_without_resume_raises(self, tmp_path):
        BatchRunner(make_batch(), tmp_path).run()
        with pytest.raises(RunnerError, match="--resume"):
            BatchRunner(make_batch(), tmp_path).run()

    def test_workers_is_not_a_parameter(self, tmp_path):
        """Grids run serially; there is no process pool to size."""
        with pytest.raises(TypeError):
            BatchRunner(make_batch(), tmp_path, workers=2)
        with pytest.raises(TypeError):
            execute_batch(make_batch(), tmp_path, workers=2)
        assert not (tmp_path / "checkpoint.jsonl").exists()

    def test_non_dict_payload_is_structured_failure(self, tmp_path):
        batch = make_batch()
        bad = TaskSpec(
            key="t:bad", kind="unit", run=lambda env: [1, 2]
        )
        batch = Batch(
            command="test",
            grid_id="grid-bad",
            tasks=(*batch.tasks, bad),
            render=batch.render,
        )
        outcome = BatchRunner(batch, tmp_path).run()
        assert outcome.exit_code == 1
        (failure,) = outcome.failures
        assert failure.key == "t:bad"
        assert "expected a JSON-able dict" in failure.message


def span_tree(timings: list[dict]) -> list:
    """(name, attributes, children) of each span, without times."""
    return [
        (
            span["name"],
            span.get("attributes", {}),
            span_tree(span.get("children", [])),
        )
        for span in timings
    ]


class TestInProcess:
    def test_runs_every_task_in_order_and_writes_nothing(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        calls: list[str] = []
        outcome = run_in_process(make_batch(calls=calls))
        assert calls == ["t:1", "t:2", "t:3"]
        assert outcome.ok
        assert (outcome.executed, outcome.cached) == (3, 0)
        assert list(tmp_path.iterdir()) == []
        journaled = BatchRunner(make_batch(), tmp_path / "ck").run()
        assert outcome.report == journaled.report
        assert outcome.results == journaled.results

    def test_task_error_propagates(self):
        calls: list[str] = []
        batch = make_batch(calls=calls)

        def broken(env):
            raise RunnerError("broken task")

        tasks = (
            batch.tasks[0],
            TaskSpec(key="t:bad", kind="unit", run=broken),
            *batch.tasks[1:],
        )
        with pytest.raises(RunnerError, match="broken task"):
            run_in_process(
                Batch("test", "grid-a", tasks, batch.render)
            )
        assert calls == ["t:1"]

    def test_spans_match_the_batch_runner(self, tmp_path):
        trees = []
        for run in (
            lambda: run_in_process(make_batch()),
            lambda: BatchRunner(make_batch(), tmp_path).run(),
        ):
            session = RunSession("test", with_git=False)
            run()
            trees.append(span_tree(session.finish()["timings"]))
        in_process, journaled = trees
        assert in_process == journaled
        [(name, attributes, tasks)] = in_process
        assert name == "runner.batch"
        assert attributes["tasks"] == 3
        assert [task[1]["key"] for task in tasks] == ["t:1", "t:2", "t:3"]


class TestResume:
    def test_full_resume_is_all_cached(self, tmp_path):
        batch = make_batch()
        first = BatchRunner(batch, tmp_path).run()
        calls: list[str] = []
        second = BatchRunner(
            make_batch(calls=calls), tmp_path, resume=True
        ).run()
        assert second.cached == 3
        assert second.executed == 0
        assert calls == []
        assert second.report == first.report

    def test_grid_mismatch_raises(self, tmp_path):
        BatchRunner(make_batch(grid="grid-a"), tmp_path).run()
        with pytest.raises(RunnerError, match="fresh checkpoint"):
            BatchRunner(
                make_batch(grid="grid-b"), tmp_path, resume=True
            ).run()

    def test_missing_artifact_reruns_task(self, tmp_path):
        legacy_checkpoint(tmp_path)
        (tmp_path / "t2.json").unlink()
        calls: list[str] = []
        outcome = BatchRunner(
            make_batch(calls=calls), tmp_path, resume=True
        ).run()
        assert calls == ["t:2"]
        assert outcome.ok
        assert outcome.report == "t:1=10\nt:2=20\nt:3=30"

    def test_corrupt_artifact_reruns_task(self, tmp_path):
        legacy_checkpoint(tmp_path)
        (tmp_path / "t3.json").write_text("{ torn")
        calls: list[str] = []
        outcome = BatchRunner(
            make_batch(calls=calls), tmp_path, resume=True
        ).run()
        assert calls == ["t:3"]
        assert outcome.ok


class TestFaults:
    def test_transient_fault_is_retried(self, tmp_path):
        plan = FaultPlan([Injection("runner.task", "start", "transient", task="t:2")])
        outcome = BatchRunner(make_batch(), tmp_path, plan=plan).run()
        assert outcome.ok
        assert plan.exhausted
        state = load_journal(tmp_path / "checkpoint.jsonl")
        assert state.completed()["t:2"]["retries"] == 1

    def test_permanent_fault_degrades(self, tmp_path):
        plan = FaultPlan(
            [
                Injection(
                    "runner.task", "start", "permanent",
                    message="bad", task="t:2",
                )
            ]
        )
        outcome = BatchRunner(make_batch(), tmp_path, plan=plan).run()
        assert outcome.exit_code == 1
        (failure,) = outcome.failures
        assert failure.key == "t:2"
        assert not failure.transient
        assert "failures:" in outcome.report
        assert "t:2: RunnerError (permanent, retries=0): bad" in (
            outcome.report
        )
        # The rest of the grid still ran.
        assert set(outcome.results) == {"t:1", "t:3"}

    def test_failed_task_reruns_on_resume(self, tmp_path):
        plan = FaultPlan([Injection("runner.task", "start", "permanent", task="t:2")])
        degraded = BatchRunner(make_batch(), tmp_path, plan=plan).run()
        assert degraded.exit_code == 1
        clean = BatchRunner(make_batch(), tmp_path, resume=True).run()
        assert clean.ok
        assert clean.cached == 2
        assert clean.executed == 1
        reference = BatchRunner(make_batch(), tmp_path / "ref").run()
        assert clean.report == reference.report

    def test_retry_budget_exhaustion_is_transient_failure(
        self, tmp_path
    ):
        plan = FaultPlan(
            [Injection("runner.task", "start", "transient", times=10, task="t:1")]
        )
        outcome = BatchRunner(make_batch(), tmp_path, plan=plan).run()
        (failure,) = outcome.failures
        assert failure.transient
        assert failure.retries == 2

    def test_max_failures_aborts_batch(self, tmp_path):
        plan = FaultPlan([Injection("runner.task", "start", "permanent", task="t:1")])
        outcome = BatchRunner(
            make_batch(), tmp_path, plan=plan, max_failures=0
        ).run()
        assert outcome.exit_code == 1
        assert outcome.pending == ("t:2", "t:3")
        assert "not attempted" in outcome.report


class TestKillAndResume:
    def test_kill_mid_batch_then_resume_byte_identical(self, tmp_path):
        reference = BatchRunner(make_batch(), tmp_path / "ref").run()
        plan = FaultPlan([Injection("runner.task", "start", "kill", task="t:2")])
        with pytest.raises(SimulatedKill):
            BatchRunner(make_batch(), tmp_path / "ck", plan=plan).run()
        state = load_journal(tmp_path / "ck" / "checkpoint.jsonl")
        assert set(state.completed()) == {"t:1"}
        resumed = BatchRunner(
            make_batch(), tmp_path / "ck", resume=True
        ).run()
        assert resumed.cached == 1
        assert resumed.executed == 2
        assert resumed.report == reference.report

    def test_interrupt_propagates(self, tmp_path):
        plan = FaultPlan([Injection("runner.task", "start", "interrupt", task="t:3")])
        with pytest.raises(KeyboardInterrupt):
            BatchRunner(make_batch(), tmp_path, plan=plan).run()
        # Everything before the interrupt is durable.
        state = load_journal(tmp_path / "checkpoint.jsonl")
        assert set(state.completed()) == {"t:1", "t:2"}

    def test_kill_at_finish_journals_nothing_for_the_task(self, tmp_path):
        plan = FaultPlan(
            [Injection("runner.task", "finish", "kill", task="t:1")]
        )
        with pytest.raises(SimulatedKill):
            BatchRunner(make_batch(), tmp_path, plan=plan).run()
        state = load_journal(tmp_path / JOURNAL_NAME)
        assert state.completed() == {}
        resumed = BatchRunner(make_batch(), tmp_path, resume=True).run()
        assert resumed.ok
        assert resumed.executed == 3


class TestIoFaultPlan:
    """Faultplan v2 ``io`` entries, installed for the run's duration."""

    def test_torn_journal_tail_then_resume_byte_identical(
        self, tmp_path
    ):
        reference = BatchRunner(make_batch(), tmp_path / "ref").run()
        plan = FaultPlan(
            [Injection(site="runner.journal", point="data",
                            error="torn", skip=2)]
        )
        with pytest.raises(SimulatedCrash):
            BatchRunner(make_batch(), tmp_path / "ck", plan=plan).run()
        resumed = BatchRunner(
            make_batch(), tmp_path / "ck", resume=True
        ).run()
        assert resumed.ok
        assert resumed.report == reference.report
        # The resume cut the torn tail before appending, so its own
        # records are intact and a second resume replays every task.
        assert not load_journal(tmp_path / "ck" / "checkpoint.jsonl").truncated
        again = BatchRunner(make_batch(), tmp_path / "ck", resume=True).run()
        assert again.ok
        assert again.cached == 3
        assert again.report == reference.report

    def test_torn_journal_header_resumes_fresh(self, tmp_path):
        plan = FaultPlan(
            [Injection(site="runner.journal", point="data",
                            error="torn")]
        )
        with pytest.raises(SimulatedCrash):
            BatchRunner(make_batch(), tmp_path, plan=plan).run()
        # The journal is a header-less husk: resume must drop it and
        # start fresh rather than append after a torn first line.
        resumed = BatchRunner(make_batch(), tmp_path, resume=True).run()
        assert resumed.ok
        assert resumed.cached == 0
        assert resumed.executed == 3
        state = load_journal(tmp_path / "checkpoint.jsonl")
        assert state.header is not None
        assert not state.truncated

    def test_io_plan_uninstalled_after_run(self, tmp_path):
        from repro.chaos import sites

        plan = FaultPlan(
            [Injection(site="runner.journal", error="torn")]
        )
        with pytest.raises(SimulatedCrash):
            BatchRunner(make_batch(), tmp_path, plan=plan).run()
        assert sites.active() is None
