"""Parallel batch execution over the fork pool.

The contract under test: ``workers=N`` produces a report (and journal,
and failure table) byte-identical to a serial run of the same grid,
the parent stays the single writer of journal and artifacts, worker
deaths surface under their original exception type with every
already-merged task durable, and worker metric shards fold into the
parent's registry so manifests reconcile.
"""

import json
import os

import pytest

from repro import obs
from repro.errors import RunnerError
from repro.obs import runtime as obs_runtime
from repro.runner import (
    Batch,
    BatchRunner,
    FaultPlan,
    Injection,
    SimulatedKill,
    TaskSpec,
    load_journal,
)

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"),
    reason="the pool backend requires the fork start method",
)


def make_batch(n: int = 5, grid: str = "grid-a") -> Batch:
    tasks = []
    for index in range(1, n + 1):
        def body(env, index=index):
            obs.inc("demo.calls")
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


@pytest.fixture
def fresh_obs():
    """A private enabled observability state, restored afterwards."""
    previous = obs_runtime.current()
    state = obs_runtime.enable()
    try:
        yield state
    finally:
        obs_runtime.restore(previous)


class TestPoolParity:
    def test_report_byte_identical_to_serial(self, tmp_path):
        serial = runner(make_batch(), tmp_path / "ref").run()
        parallel = runner(
            make_batch(), tmp_path / "ck", workers=2
        ).run()
        assert parallel.ok
        assert parallel.report == serial.report
        assert parallel.executed == serial.executed == 5

    def test_artifacts_identical_to_serial(self, tmp_path):
        runner(make_batch(), tmp_path / "ref").run()
        runner(make_batch(), tmp_path / "ck", workers=3).run()
        for index in range(1, 6):
            name = f"t{index}.json"
            assert (tmp_path / "ck" / name).read_bytes() == (
                tmp_path / "ref" / name
            ).read_bytes()

    def test_journal_in_batch_order_with_worker_ids(self, tmp_path):
        runner(make_batch(), tmp_path, workers=3).run()
        state = load_journal(tmp_path / "checkpoint.jsonl")
        entries = state.completed()
        assert list(entries) == [f"t:{i}" for i in range(1, 6)]
        workers = {entry["worker"] for entry in entries.values()}
        assert all(
            isinstance(worker, int) and worker >= 0
            for worker in workers
        )
        # Worker ids are densely renumbered in first-contribution
        # order, so id 0 always exists regardless of OS pids.
        assert 0 in workers

    def test_more_workers_than_tasks(self, tmp_path):
        outcome = runner(
            make_batch(n=2), tmp_path, workers=8
        ).run()
        assert outcome.ok
        assert outcome.executed == 2

    def test_workers_zero_rejected(self, tmp_path):
        with pytest.raises(RunnerError, match="--workers"):
            BatchRunner(make_batch(), tmp_path, workers=0)

    def test_resume_serial_checkpoint_in_parallel(self, tmp_path):
        reference = runner(make_batch(), tmp_path / "ref").run()
        plan = FaultPlan([Injection("runner.task", "start", "kill", task="t:3")])
        with pytest.raises(SimulatedKill):
            runner(make_batch(), tmp_path / "ck", plan=plan).run()
        resumed = runner(
            make_batch(), tmp_path / "ck", resume=True, workers=2
        ).run()
        assert resumed.cached == 2
        assert resumed.executed == 3
        assert resumed.report == reference.report


class TestPoolFaults:
    def test_kill_in_worker_reraised_with_durable_prefix(
        self, tmp_path
    ):
        plan = FaultPlan([Injection("runner.task", "start", "kill", task="t:3")])
        with pytest.raises(SimulatedKill):
            runner(
                make_batch(), tmp_path, plan=plan, workers=2
            ).run()
        # Results are merged in batch order, so everything before the
        # killed task is journaled; nothing after it is.
        state = load_journal(tmp_path / "checkpoint.jsonl")
        assert set(state.completed()) == {"t:1", "t:2"}

    def test_kill_then_resume_byte_identical(self, tmp_path):
        reference = runner(
            make_batch(), tmp_path / "ref", workers=2
        ).run()
        plan = FaultPlan([Injection("runner.task", "start", "kill", task="t:3")])
        with pytest.raises(SimulatedKill):
            runner(
                make_batch(), tmp_path / "ck", plan=plan, workers=2
            ).run()
        resumed = runner(
            make_batch(), tmp_path / "ck", resume=True, workers=2
        ).run()
        assert resumed.cached == 2
        assert resumed.executed == 3
        assert resumed.report == reference.report

    def test_interrupt_in_worker_propagates(self, tmp_path):
        plan = FaultPlan([Injection("runner.task", "start", "interrupt", task="t:4")])
        with pytest.raises(KeyboardInterrupt):
            runner(
                make_batch(), tmp_path, plan=plan, workers=2
            ).run()
        state = load_journal(tmp_path / "checkpoint.jsonl")
        assert set(state.completed()) == {"t:1", "t:2", "t:3"}

    def test_transient_retry_in_worker_is_journaled(self, tmp_path):
        plan = FaultPlan([Injection("runner.task", "start", "transient", task="t:2")])
        outcome = runner(
            make_batch(), tmp_path, plan=plan, workers=2
        ).run()
        assert outcome.ok
        state = load_journal(tmp_path / "checkpoint.jsonl")
        assert state.completed()["t:2"]["retries"] == 1

    def test_permanent_fault_report_matches_serial(self, tmp_path):
        plan = [
            Injection(
                "runner.task", "start", "permanent",
                message="bad", task="t:2",
            )
        ]
        serial = runner(
            make_batch(), tmp_path / "ref", plan=FaultPlan(plan)
        ).run()
        parallel = runner(
            make_batch(),
            tmp_path / "ck",
            plan=FaultPlan(plan),
            workers=3,
        ).run()
        assert parallel.exit_code == 1
        assert parallel.report == serial.report
        (failure,) = parallel.failures
        assert failure.key == "t:2"
        assert not failure.transient

    def test_artifact_fault_fires_in_parent(self, tmp_path):
        plan = FaultPlan(
            [Injection("runner.artifact", error="transient", task="t:1")]
        )
        outcome = runner(
            make_batch(), tmp_path, plan=plan, workers=2
        ).run()
        assert outcome.ok
        # Artifact writes happen parent-side, so the parent's plan copy
        # (not a worker's) must have fired the injection.
        assert plan.exhausted
        state = load_journal(tmp_path / "checkpoint.jsonl")
        assert state.completed()["t:1"]["retries"] == 1
        payload = json.loads((tmp_path / "t1.json").read_text())
        assert payload == {"value": 10}

    def test_kill_during_artifact_write_leaves_no_partial(
        self, tmp_path
    ):
        plan = FaultPlan(
            [Injection("runner.artifact", error="kill", task="t:1")]
        )
        with pytest.raises(SimulatedKill):
            runner(
                make_batch(), tmp_path, plan=plan, workers=2
            ).run()
        assert not (tmp_path / "t1.json").exists()
        assert not list(tmp_path.glob("*.tmp"))
        state = load_journal(tmp_path / "checkpoint.jsonl")
        assert state.completed() == {}

    def test_max_failures_aborts_with_pending(self, tmp_path):
        plan = FaultPlan([Injection("runner.task", "start", "permanent", task="t:1")])
        outcome = runner(
            make_batch(),
            tmp_path,
            plan=plan,
            max_failures=0,
            workers=2,
        ).run()
        assert outcome.exit_code == 1
        assert outcome.pending == ("t:2", "t:3", "t:4", "t:5")
        assert "not attempted" in outcome.report


class TestWorkerMetrics:
    def test_shards_merge_into_parent_registry(
        self, tmp_path, fresh_obs
    ):
        runner(make_batch(), tmp_path, workers=2).run()
        snapshot = fresh_obs.registry.snapshot()
        # One shard merge per pool-executed task...
        assert snapshot["runner.worker.tasks"]["value"] == 5
        # ...carrying the counters the task bodies bumped in-worker.
        assert snapshot["demo.calls"]["value"] == 5
        assert snapshot["runner.task.completed"]["value"] == 5

    def test_per_worker_counters_cover_all_tasks(
        self, tmp_path, fresh_obs
    ):
        runner(make_batch(), tmp_path, workers=2).run()
        snapshot = fresh_obs.registry.snapshot()
        per_worker = [
            entry["value"]
            for name, entry in snapshot.items()
            if name.startswith("runner.worker.")
            and name.endswith(".tasks")
            and name != "runner.worker.tasks"
        ]
        assert sum(per_worker) == 5

    def test_worker_phase_timings_recorded(self, tmp_path, fresh_obs):
        runner(make_batch(), tmp_path, workers=2).run()
        snapshot = fresh_obs.registry.snapshot()
        phase = snapshot["runner.worker.phase.runner.task.seconds"]
        assert phase["kind"] == "counter"
        assert phase["value"] >= 0

    def test_serial_run_has_no_worker_counters(
        self, tmp_path, fresh_obs
    ):
        runner(make_batch(), tmp_path).run()
        snapshot = fresh_obs.registry.snapshot()
        assert "runner.worker.tasks" not in snapshot
