"""CLI-level batch runner tests: one grid path and the kill-and-resume
contract.

These drive ``repro-layout compare/table1`` end to end on drastically
scaled-down workloads, asserting the acceptance invariants: every run
is the task grid, so stdout is byte-identical with the store off, cold
or warm and with no checkpoint, a fresh one or a resumed one; an
interrupted batch exits 130 with a one-line resume hint; the run
manifest's runner metrics agree with the journal (no task is
double-counted); and the checkpoint directory passes
``repro-layout check`` cleanly.
"""

import json
import shutil
from collections import Counter

import pytest

from repro import cli, service
from repro.obs import load_run_manifest, self_times
from repro.errors import RunnerError
from repro.runner import (
    FAULTPLAN_FORMAT,
    FAULTPLAN_VERSION,
    FaultPlan,
    load_journal,
)
from repro.service import experiments
from repro.workloads import suite as suite_module
from tests.conftest import POOL_CHECKPOINT, cold_process_caches

#: compare --runs 1 grid: 1 profile + 4 algorithms x (clean + 1 seed).
COMPARE_TASKS = 9


@pytest.fixture
def tiny_workload(monkeypatch):
    workload = suite_module.by_name("m88ksim").scaled(0.02)
    monkeypatch.setattr(cli, "by_name", lambda _name: workload)
    monkeypatch.setattr(cli, "SUITE", [workload])
    return workload


@pytest.fixture
def tiny_suite(monkeypatch, tiny_workload):
    """``table1`` over two tiny workloads (its grid reads the suite
    through the service)."""
    suite = [tiny_workload, suite_module.by_name("perl").scaled(0.02)]
    monkeypatch.setattr(experiments, "SUITE", suite)
    return suite


def write_plan(path, injections: list[dict]) -> str:
    path.write_text(
        json.dumps(
            {
                "format": FAULTPLAN_FORMAT,
                "version": FAULTPLAN_VERSION,
                "injections": injections,
            }
        )
    )
    return str(path)


def compare_argv(checkpoint, *extra: str) -> list[str]:
    return [
        "compare",
        "m88ksim",
        "--runs",
        "1",
        "--checkpoint",
        str(checkpoint),
        *extra,
    ]


class TestCleanBatch:
    def test_compare_checkpoint_exits_0(
        self, tiny_workload, tmp_path, capsys
    ):
        assert cli.main(compare_argv(tmp_path / "ck")) == 0
        out = capsys.readouterr().out
        assert "m88ksim:" in out
        state = load_journal(tmp_path / "ck" / "checkpoint.jsonl")
        assert len(state.completed()) == COMPARE_TASKS

    def test_checkpoint_dir_passes_check(
        self, tiny_workload, tmp_path, capsys
    ):
        assert cli.main(compare_argv(tmp_path / "ck")) == 0
        capsys.readouterr()
        assert cli.main(["check", str(tmp_path / "ck")]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_checkpoint_dir_holds_only_the_journal(
        self, tiny_workload, tmp_path, capsys
    ):
        """Each task's journal record is its one durable write."""
        assert cli.main(compare_argv(tmp_path / "ck")) == 0
        assert [p.name for p in (tmp_path / "ck").iterdir()] == [
            "checkpoint.jsonl"
        ]


#: Commands of the stdout matrix, and the task an injected interrupt
#: stops each at in the matrix's "resumed" cells.
MATRIX_COMMANDS = {
    "compare": (["compare", "m88ksim", "--runs", "1"], "cell:*:HKC:clean"),
    "table1": (["table1"], "row:perl"),
}


class TestStdoutMatrix:
    """One execution path: every (store, checkpoint) cell prints the
    bytes of a plain run."""

    @pytest.mark.parametrize("command", sorted(MATRIX_COMMANDS))
    def test_every_cell_prints_the_same_bytes(
        self, tiny_suite, tmp_path, capsys, command
    ):
        argv, interrupted_task = MATRIX_COMMANDS[command]
        plan = write_plan(
            tmp_path / "plan.json",
            [{"task": interrupted_task, "error": "interrupt"}],
        )
        outputs = {}
        for store in ("off", "cold", "warm"):
            for checkpoint in ("none", "fresh", "resumed"):
                cell = f"{store}/{checkpoint}"
                cell_argv = list(argv)
                if store != "off":
                    # A warm cell reuses the store its cold twin filled.
                    store_dir = tmp_path / f"store-{checkpoint}"
                    cell_argv += ["--cache", str(store_dir)]
                if checkpoint != "none":
                    ck = tmp_path / f"ck-{store}-{checkpoint}"
                    cell_argv += ["--checkpoint", str(ck)]
                cold_process_caches()
                if checkpoint == "resumed":
                    injected = [*cell_argv, "--inject", plan]
                    assert cli.main(injected) == 130, cell
                    capsys.readouterr()
                    cell_argv.append("--resume")
                assert cli.main(cell_argv) == 0, cell
                outputs[cell] = capsys.readouterr().out
        first = outputs["off/none"]
        assert "no completed" not in first
        differing = [cell for cell, out in outputs.items() if out != first]
        assert differing == []


class TestInterruptAndResume:
    def test_interrupt_exits_130_with_hint(
        self, tiny_workload, tmp_path, capsys
    ):
        plan = write_plan(
            tmp_path / "plan.json",
            [{"task": "cell:*:HKC:clean", "error": "interrupt"}],
        )
        code = cli.main(
            compare_argv(tmp_path / "ck", "--inject", plan)
        )
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupted — resume with --resume" in err
        assert "Traceback" not in err

    def test_resume_reproduces_uninterrupted_report(
        self, tiny_workload, tmp_path, capsys
    ):
        assert cli.main(compare_argv(tmp_path / "ref")) == 0
        reference = capsys.readouterr().out

        plan = write_plan(
            tmp_path / "plan.json",
            [{"task": "cell:*:HKC:clean", "error": "interrupt"}],
        )
        assert (
            cli.main(compare_argv(tmp_path / "ck", "--inject", plan))
            == 130
        )
        capsys.readouterr()
        journaled = len(
            load_journal(
                tmp_path / "ck" / "checkpoint.jsonl"
            ).completed()
        )
        assert 0 < journaled < COMPARE_TASKS

        metrics = tmp_path / "resume.jsonl"
        code = cli.main(
            compare_argv(
                tmp_path / "ck",
                "--resume",
                "--metrics-out",
                str(metrics),
            )
        )
        assert code == 0
        assert capsys.readouterr().out == reference

        # Manifest counters agree with the journal: every task ran
        # exactly once across the two processes.
        manifest = load_run_manifest(metrics)
        counters = manifest["metrics"]
        cached = counters["runner.task.cached"]["value"]
        completed = counters["runner.task.completed"]["value"]
        assert cached == journaled
        assert cached + completed == COMPARE_TASKS

    def test_torn_line_with_newline_survives_two_resumes(
        self, tiny_workload, tmp_path, capsys
    ):
        """A torn last record that kept its newline is cut before the
        first resume appends, so the second resume still parses."""
        assert cli.main(compare_argv(tmp_path / "ck")) == 0
        reference = capsys.readouterr().out
        journal = tmp_path / "ck" / "checkpoint.jsonl"
        header, first, *_ = journal.read_text().splitlines(keepends=True)
        journal.write_text(header + first + '{"type": "task", "ke\n')
        for _ in range(2):
            assert cli.main(compare_argv(tmp_path / "ck", "--resume")) == 0
            assert capsys.readouterr().out == reference
        assert cli.main(["check", str(tmp_path / "ck")]) == 0

    def test_simulated_kill_exits_137_then_resumes(
        self, tiny_workload, tmp_path, capsys
    ):
        plan = write_plan(
            tmp_path / "plan.json",
            [{"task": "cell:*:PH:clean", "error": "kill"}],
        )
        assert (
            cli.main(compare_argv(tmp_path / "ck", "--inject", plan))
            == 137
        )
        capsys.readouterr()
        assert (
            cli.main(compare_argv(tmp_path / "ck", "--resume")) == 0
        )


class TestDegradedBatch:
    def test_permanent_fault_degrades_exit_1(
        self, tiny_workload, tmp_path, capsys
    ):
        plan = write_plan(
            tmp_path / "plan.json",
            [
                {
                    "task": "cell:*:GBSC:p000",
                    "error": "permanent",
                    "message": "injected permanent fault",
                }
            ],
        )
        code = cli.main(
            compare_argv(tmp_path / "ck", "--inject", plan)
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "failures:" in captured.out
        assert "injected permanent fault" in captured.out
        assert "batch degraded: 1 failed" in captured.err
        assert "Traceback" not in captured.err

    def test_degraded_checkpoint_still_passes_check(
        self, tiny_workload, tmp_path, capsys
    ):
        plan = write_plan(
            tmp_path / "plan.json",
            [{"task": "cell:*:GBSC:p000", "error": "permanent"}],
        )
        assert (
            cli.main(compare_argv(tmp_path / "ck", "--inject", plan))
            == 1
        )
        capsys.readouterr()
        assert cli.main(["check", str(tmp_path / "ck")]) == 0

    def test_transient_fault_is_retried_to_success(
        self, tiny_workload, tmp_path, capsys
    ):
        plan = write_plan(
            tmp_path / "plan.json",
            [{"task": "profile:*", "error": "transient", "times": 2}],
        )
        code = cli.main(
            compare_argv(tmp_path / "ck", "--inject", plan)
        )
        assert code == 0
        state = load_journal(tmp_path / "ck" / "checkpoint.jsonl")
        assert state.completed()["profile:m88ksim"]["retries"] == 2


class TestParallelCli:
    """Checkpoints that parallel runs wrote before grids ran serially
    only: ``--resume`` finishes them and ``check`` accepts them."""

    def test_parallel_report_matches_serial(
        self, tiny_workload, tmp_path, capsys
    ):
        assert cli.main(compare_argv(tmp_path / "ref")) == 0
        serial = capsys.readouterr().out
        shutil.copytree(POOL_CHECKPOINT, tmp_path / "ck")
        assert cli.main(compare_argv(tmp_path / "ck", "--resume")) == 0
        assert capsys.readouterr().out == serial
        state = load_journal(tmp_path / "ck" / "checkpoint.jsonl")
        completed = state.completed()
        assert len(completed) == COMPARE_TASKS
        # The three tasks the parallel run finished were not re-run.
        assert [
            key for key, entry in completed.items() if "worker" in entry
        ] == [
            "profile:m88ksim",
            "cell:m88ksim:default:clean",
            "cell:m88ksim:default:p000",
        ]

    def test_parallel_checkpoint_passes_check(
        self, tiny_workload, tmp_path, capsys
    ):
        assert cli.main(["check", str(POOL_CHECKPOINT)]) == 0
        assert "no findings" in capsys.readouterr().out
        shutil.copytree(POOL_CHECKPOINT, tmp_path / "ck")
        assert cli.main(compare_argv(tmp_path / "ck", "--resume")) == 0
        capsys.readouterr()
        assert cli.main(["check", str(tmp_path / "ck")]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_mixed_legacy_and_inline_journal(
        self, tiny_workload, tmp_path, capsys
    ):
        """Legacy artifact records followed by inline-payload records
        resume to the plain run's report and pass ``check``."""
        assert cli.main(["compare", "m88ksim", "--runs", "1"]) == 0
        plain = capsys.readouterr().out
        shutil.copytree(POOL_CHECKPOINT, tmp_path / "ck")
        assert cli.main(compare_argv(tmp_path / "ck", "--resume")) == 0
        assert capsys.readouterr().out == plain
        entries = load_journal(tmp_path / "ck" / "checkpoint.jsonl").entries
        assert [("artifact" in e, "payload" in e) for e in entries] == [
            (True, False)
        ] * 3 + [(False, True)] * (COMPARE_TASKS - 3)
        assert cli.main(compare_argv(tmp_path / "ck", "--resume")) == 0
        assert capsys.readouterr().out == plain
        assert len(
            load_journal(tmp_path / "ck" / "checkpoint.jsonl").entries
        ) == COMPARE_TASKS
        assert cli.main(["check", str(tmp_path / "ck")]) == 0
        assert "no findings" in capsys.readouterr().out


class TestRunnerArgumentErrors:
    def test_resume_without_checkpoint_exits_2(
        self, tiny_workload, tmp_path, capsys
    ):
        """Each runner flag needs ``--checkpoint``, on the CLI and
        through the library, and is never silently ignored."""
        message = "--resume/--inject/--max-failures require --checkpoint DIR"
        plan = write_plan(tmp_path / "plan.json", [])
        for flag in (["--resume"], ["--inject", plan], ["--max-failures", "3"]):
            for command in (["compare", "m88ksim"], ["table1", "--fast"]):
                assert cli.main([*command, *flag]) == 2, flag
                assert capsys.readouterr().err == f"error: {message}\n"
        batch = service.build_compare_batch(
            service.CompareRequest(workload=tiny_workload)
        )
        for options in (
            {"resume": True},
            {"plan": FaultPlan()},
            {"max_failures": 3},
        ):
            with pytest.raises(RunnerError) as error:
                service.execute_batch(batch, **options)
            assert str(error.value) == message

    def test_workers_without_checkpoint_exits_2(
        self, tiny_workload, capsys
    ):
        """Grids run serially; ``--workers`` is not an option."""
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["compare", "m88ksim", "--workers", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --workers 2" in (
            capsys.readouterr().err
        )

    def test_workers_zero_exits_2(
        self, tiny_workload, tmp_path, capsys
    ):
        for command in (["compare", "m88ksim"], ["table1"]):
            argv = [
                *command,
                "--checkpoint",
                str(tmp_path / "ck"),
                "--workers",
                "0",
            ]
            with pytest.raises(SystemExit) as exit_info:
                cli.main(argv)
            assert exit_info.value.code == 2
            assert "unrecognized arguments: --workers 0" in (
                capsys.readouterr().err
            )
        assert not (tmp_path / "ck").exists()

    def test_negative_max_failures_exits_2(self, tmp_path, capsys):
        """Rejected before any task runs, with one message on the CLI
        and through the library."""
        message = "--max-failures must be >= 0, got -1"
        code = cli.main(
            [
                "table1",
                "--fast",
                "--checkpoint",
                str(tmp_path / "ck"),
                "--max-failures",
                "-1",
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "ck").exists()
        batch = service.build_table1_batch(service.Table1Request(fast=True))
        with pytest.raises(RunnerError) as error:
            service.execute_batch(batch, tmp_path / "ck", max_failures=-1)
        assert str(error.value) == message

    def test_missing_inject_plan_exits_2(
        self, tiny_workload, tmp_path, capsys
    ):
        code = cli.main(
            compare_argv(
                tmp_path / "ck",
                "--inject",
                str(tmp_path / "absent.json"),
            )
        )
        assert code == 2
        assert "fault plan" in capsys.readouterr().err

    def test_absent_inject_plan_without_checkpoint_exits_2(
        self, tiny_workload, tmp_path, capsys
    ):
        """The missing ``--checkpoint`` is reported before the plan is
        read, with the message the other runner flags give."""
        message = "--resume/--inject/--max-failures require --checkpoint DIR"
        absent = str(tmp_path / "absent.json")
        for command in (["compare", "m88ksim"], ["table1", "--fast"]):
            assert cli.main([*command, "--inject", absent]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_reusing_checkpoint_without_resume_exits_2(
        self, tiny_workload, tmp_path, capsys
    ):
        assert cli.main(compare_argv(tmp_path / "ck")) == 0
        capsys.readouterr()
        code = cli.main(compare_argv(tmp_path / "ck"))
        assert code == 2
        assert "--resume" in capsys.readouterr().err


class TestDirectAndBatchParity:
    """Runs with and without ``--checkpoint`` validate alike and run
    the one grid path, whose manifest attributes every cell."""

    @pytest.mark.parametrize("batch", [False, True])
    def test_negative_runs_rejected_on_both_paths(
        self, tiny_workload, tmp_path, capsys, batch
    ):
        argv = ["compare", "m88ksim", "--runs", "-1"]
        if batch:
            argv += ["--checkpoint", str(tmp_path / "ck")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            "error: runs must be >= 0, got -1\n"
        )

    def test_trg_method_reaches_batch_profiles(self, tmp_path, capsys):
        """The TRG pipeline is not an option on either path."""
        for command in (["compare", "m88ksim"], ["table1"]):
            for extra in ([], ["--checkpoint", str(tmp_path / "ck")]):
                argv = [*command, "--trg-method", "scalar", *extra]
                with pytest.raises(SystemExit) as exit_info:
                    cli.main(argv)
                assert exit_info.value.code == 2
                assert "unrecognized arguments: --trg-method" in (
                    capsys.readouterr().err
                )

    def test_every_path_attributes_its_placements(
        self, tiny_workload, tmp_path, capsys
    ):
        run = tmp_path / "run.jsonl"
        argv = [
            "compare", "m88ksim", "--runs", "1",
            "--metrics-out", str(run),
        ]
        assert cli.main(argv) == 0
        records = [json.loads(line) for line in run.read_text().splitlines()]
        counts = Counter(
            record["attributes"]["algorithm"]
            for record in records
            if record.get("type") == "span" and record["name"] == "place"
        )
        # One span per cell: 4 algorithms x (clean + 1 perturbed run).
        assert counts == {"default": 2, "PH": 2, "HKC": 2, "GBSC": 2}

    def test_batch_perturbs_once_per_seed(
        self, tiny_workload, tmp_path, capsys
    ):
        """The grid perturbs each seed once and shares the perturbed
        profile across the four algorithms."""
        run = tmp_path / "run.jsonl"
        argv = [
            "compare", "m88ksim", "--runs", "2",
            "--metrics-out", str(run),
        ]
        assert cli.main(argv) == 0
        stages = self_times(load_run_manifest(run)["timings"])
        assert stages["perturb"]["calls"] == 2
