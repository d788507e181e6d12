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
    Batch,
    BatchRunner,
    FaultPlan,
    Injection,
    SimulatedKill,
    TaskSpec,
    load_journal,
    null_sleep,
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

        tasks.append(
            TaskSpec(
                key=f"t:{index}",
                kind="unit",
                run=body,
                artifact=f"t{index}.json",
            )
        )

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


def runner(batch: Batch, directory, **kwargs) -> BatchRunner:
    kwargs.setdefault("sleep", lambda seconds: None)
    return BatchRunner(batch, directory, **kwargs)


class TestCleanRun:
    def test_all_tasks_complete(self, tmp_path):
        outcome = runner(make_batch(), tmp_path).run()
        assert outcome.ok
        assert outcome.exit_code == 0
        assert outcome.executed == 3
        assert outcome.cached == 0
        assert outcome.report == "t:1=10\nt:2=20\nt:3=30"

    def test_artifacts_written(self, tmp_path):
        runner(make_batch(), tmp_path).run()
        for name in ("t1.json", "t2.json", "t3.json"):
            payload = json.loads((tmp_path / name).read_text())
            assert "value" in payload

    def test_journal_records(self, tmp_path):
        batch = make_batch()
        runner(batch, tmp_path).run()
        state = load_journal(tmp_path / "checkpoint.jsonl")
        assert state.header["grid"] == "grid-a"
        assert state.header["tasks"] == 3
        assert set(state.completed()) == {"t:1", "t:2", "t:3"}

    def test_existing_journal_without_resume_raises(self, tmp_path):
        runner(make_batch(), tmp_path).run()
        with pytest.raises(RunnerError, match="--resume"):
            runner(make_batch(), tmp_path).run()

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
        outcome = runner(batch, tmp_path).run()
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
        journaled = runner(make_batch(), tmp_path / "ck").run()
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
            lambda: runner(make_batch(), tmp_path).run(),
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
        first = runner(batch, tmp_path).run()
        calls: list[str] = []
        second = runner(
            make_batch(calls=calls), tmp_path, resume=True
        ).run()
        assert second.cached == 3
        assert second.executed == 0
        assert calls == []
        assert second.report == first.report

    def test_grid_mismatch_raises(self, tmp_path):
        runner(make_batch(grid="grid-a"), tmp_path).run()
        with pytest.raises(RunnerError, match="fresh checkpoint"):
            runner(
                make_batch(grid="grid-b"), tmp_path, resume=True
            ).run()

    def test_missing_artifact_reruns_task(self, tmp_path):
        runner(make_batch(), tmp_path).run()
        (tmp_path / "t2.json").unlink()
        calls: list[str] = []
        outcome = runner(
            make_batch(calls=calls), tmp_path, resume=True
        ).run()
        assert calls == ["t:2"]
        assert outcome.ok
        assert outcome.report == "t:1=10\nt:2=20\nt:3=30"

    def test_corrupt_artifact_reruns_task(self, tmp_path):
        runner(make_batch(), tmp_path).run()
        (tmp_path / "t3.json").write_text("{ torn")
        calls: list[str] = []
        outcome = runner(
            make_batch(calls=calls), tmp_path, resume=True
        ).run()
        assert calls == ["t:3"]
        assert outcome.ok


class TestFaults:
    def test_transient_fault_is_retried(self, tmp_path):
        plan = FaultPlan([Injection("runner.task", "start", "transient", task="t:2")])
        outcome = runner(make_batch(), tmp_path, plan=plan).run()
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
        outcome = runner(make_batch(), tmp_path, plan=plan).run()
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
        degraded = runner(make_batch(), tmp_path, plan=plan).run()
        assert degraded.exit_code == 1
        clean = runner(make_batch(), tmp_path, resume=True).run()
        assert clean.ok
        assert clean.cached == 2
        assert clean.executed == 1
        reference = runner(make_batch(), tmp_path / "ref").run()
        assert clean.report == reference.report

    def test_retry_budget_exhaustion_is_transient_failure(
        self, tmp_path
    ):
        plan = FaultPlan(
            [Injection("runner.task", "start", "transient", times=10, task="t:1")]
        )
        outcome = runner(
            make_batch(), tmp_path, plan=plan, retries=2
        ).run()
        (failure,) = outcome.failures
        assert failure.transient
        assert failure.retries == 2

    def test_max_failures_aborts_batch(self, tmp_path):
        plan = FaultPlan([Injection("runner.task", "start", "permanent", task="t:1")])
        outcome = runner(
            make_batch(), tmp_path, plan=plan, max_failures=0
        ).run()
        assert outcome.exit_code == 1
        assert outcome.pending == ("t:2", "t:3")
        assert "not attempted" in outcome.report


class TestSleeperDefaults:
    def test_fault_plan_defaults_to_null_sleep(self, tmp_path):
        """Injected faults are simulations; their retry backoff must
        not burn real wall time unless a sleeper is passed in."""
        plan = FaultPlan([Injection("runner.task", "start", "transient", task="t:1")])
        engine = BatchRunner(make_batch(), tmp_path, plan=plan)
        assert engine._sleep is null_sleep

    def test_no_plan_keeps_real_backoff(self, tmp_path):
        engine = BatchRunner(make_batch(), tmp_path)
        assert engine._sleep is None

    def test_explicit_sleeper_wins_over_plan_default(self, tmp_path):
        plan = FaultPlan([Injection("runner.task", "start", "transient", task="t:1")])
        sleeps: list[float] = []
        outcome = BatchRunner(
            make_batch(), tmp_path, plan=plan, sleep=sleeps.append
        ).run()
        assert outcome.ok
        assert sleeps  # the injected sleeper observed the backoff


class TestKillAndResume:
    def test_kill_mid_batch_then_resume_byte_identical(self, tmp_path):
        reference = runner(make_batch(), tmp_path / "ref").run()
        plan = FaultPlan([Injection("runner.task", "start", "kill", task="t:2")])
        with pytest.raises(SimulatedKill):
            runner(make_batch(), tmp_path / "ck", plan=plan).run()
        state = load_journal(tmp_path / "ck" / "checkpoint.jsonl")
        assert set(state.completed()) == {"t:1"}
        resumed = runner(
            make_batch(), tmp_path / "ck", resume=True
        ).run()
        assert resumed.cached == 1
        assert resumed.executed == 2
        assert resumed.report == reference.report

    def test_interrupt_propagates(self, tmp_path):
        plan = FaultPlan([Injection("runner.task", "start", "interrupt", task="t:3")])
        with pytest.raises(KeyboardInterrupt):
            runner(make_batch(), tmp_path, plan=plan).run()
        # Everything before the interrupt is durable.
        state = load_journal(tmp_path / "checkpoint.jsonl")
        assert set(state.completed()) == {"t:1", "t:2"}

    def test_kill_during_artifact_write_leaves_no_partial(
        self, tmp_path
    ):
        plan = FaultPlan(
            [Injection("runner.artifact", error="kill", task="t:1")]
        )
        with pytest.raises(SimulatedKill):
            runner(make_batch(), tmp_path, plan=plan).run()
        assert not (tmp_path / "t1.json").exists()
        assert not list(tmp_path.glob("*.tmp"))
        state = load_journal(tmp_path / "checkpoint.jsonl")
        assert state.completed() == {}
        resumed = runner(make_batch(), tmp_path, resume=True).run()
        assert resumed.ok
        assert (tmp_path / "t1.json").exists()

    def test_transient_fault_during_artifact_write_is_retried(
        self, tmp_path
    ):
        plan = FaultPlan(
            [Injection("runner.artifact", error="transient", task="t:1")]
        )
        outcome = runner(make_batch(), tmp_path, plan=plan).run()
        assert outcome.ok
        assert plan.exhausted
        state = load_journal(tmp_path / "checkpoint.jsonl")
        assert state.completed()["t:1"]["retries"] == 1
        payload = json.loads((tmp_path / "t1.json").read_text())
        assert payload == {"value": 10}


class TestIoFaultPlan:
    """Faultplan v2 ``io`` entries, installed for the run's duration."""

    def test_crash_mid_artifact_write_then_resume_byte_identical(
        self, tmp_path
    ):
        reference = runner(make_batch(), tmp_path / "ref").run()
        plan = FaultPlan(
            [Injection(site="runner.artifact", point="data",
                            error="crash", skip=1)]
        )
        with pytest.raises(SimulatedCrash):
            runner(make_batch(), tmp_path / "ck", plan=plan).run()
        # The power cut stranded the second artifact's temp file.
        assert list((tmp_path / "ck").glob("*.tmp"))
        assert not (tmp_path / "ck" / "t2.json").exists()
        resumed = runner(
            make_batch(), tmp_path / "ck", resume=True
        ).run()
        assert resumed.ok
        assert resumed.report == reference.report
        # The resume sweep reclaimed the stranded temp.
        assert not list((tmp_path / "ck").glob("*.tmp"))

    def test_torn_journal_tail_then_resume_byte_identical(
        self, tmp_path
    ):
        reference = runner(make_batch(), tmp_path / "ref").run()
        plan = FaultPlan(
            [Injection(site="runner.journal", point="data",
                            error="torn", skip=2)]
        )
        with pytest.raises(SimulatedCrash):
            runner(make_batch(), tmp_path / "ck", plan=plan).run()
        resumed = runner(
            make_batch(), tmp_path / "ck", resume=True
        ).run()
        assert resumed.ok
        assert resumed.report == reference.report
        # The resume cut the torn tail before appending, so its own
        # records are intact and a second resume replays every task.
        assert not load_journal(tmp_path / "ck" / "checkpoint.jsonl").truncated
        again = runner(make_batch(), tmp_path / "ck", resume=True).run()
        assert again.ok
        assert again.cached == 3
        assert again.report == reference.report

    def test_torn_journal_header_resumes_fresh(self, tmp_path):
        plan = FaultPlan(
            [Injection(site="runner.journal", point="data",
                            error="torn")]
        )
        with pytest.raises(SimulatedCrash):
            runner(make_batch(), tmp_path, plan=plan).run()
        # The journal is a header-less husk: resume must drop it and
        # start fresh rather than append after a torn first line.
        resumed = runner(make_batch(), tmp_path, resume=True).run()
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
            runner(make_batch(), tmp_path, plan=plan).run()
        assert sites.active() is None
