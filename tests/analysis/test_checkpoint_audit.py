"""Checkpoint auditing: every rule fires on a damaged checkpoint and
stays quiet on a healthy one — including a *degraded* one, whose
failure records are valid content, not findings."""

import json

import pytest

from repro.analysis import (
    Severity,
    audit_checkpoint,
    audit_run_path,
)
from repro.obs import sniff_format
from repro.runner import (
    Batch,
    BatchRunner,
    FaultPlan,
    Injection,
    TaskSpec,
)
from repro.runner.journal import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    JOURNAL_NAME,
)
from tests.conftest import POOL_CHECKPOINT


def make_batch(n: int = 2, grid: str = "grid-a") -> Batch:
    tasks = tuple(
        TaskSpec(
            key=f"t:{index}",
            kind="unit",
            run=lambda env, index=index: {"value": index},
            artifact=f"t{index}.json",
        )
        for index in range(1, n + 1)
    )
    return Batch(
        command="test",
        grid_id=grid,
        tasks=tasks,
        render=lambda results: "report",
    )


@pytest.fixture
def checkpoint(tmp_path):
    """A healthy checkpoint directory produced by a real run."""
    BatchRunner(make_batch(), tmp_path / "ck").run()
    return tmp_path / "ck"


def rules(findings) -> set[str]:
    return {finding.rule for finding in findings}


class TestHealthyCheckpoints:
    def test_clean_run_has_no_findings(self, checkpoint):
        assert audit_checkpoint(checkpoint) == []

    def test_journal_file_directly(self, checkpoint):
        assert audit_checkpoint(checkpoint / JOURNAL_NAME) == []

    def test_degraded_run_is_still_clean(self, tmp_path):
        plan = FaultPlan([Injection("runner.task", "start", "permanent", task="t:2")])
        outcome = BatchRunner(
            make_batch(), tmp_path / "ck", plan=plan
        ).run()
        assert outcome.exit_code == 1
        # Failure records are valid journal content, not findings.
        assert audit_checkpoint(tmp_path / "ck") == []

    def test_parallel_run_is_clean(self):
        """Journals written by parallel runs (before grids ran serially
        only) carry ``worker`` ids on task records; the auditor accepts
        them as valid content."""
        journal = (POOL_CHECKPOINT / JOURNAL_NAME).read_text()
        assert '"worker":' in journal
        assert audit_checkpoint(POOL_CHECKPOINT) == []

    def test_payload_only_records_are_clean(self, tmp_path):
        batch = Batch(
            command="test",
            grid_id="g",
            tasks=(
                TaskSpec(
                    key="t:1", kind="unit", run=lambda env: {"v": 1}
                ),
            ),
            render=lambda results: "report",
        )
        BatchRunner(batch, tmp_path / "ck").run()
        assert audit_checkpoint(tmp_path / "ck") == []


class TestDamage:
    def test_missing_journal(self, tmp_path):
        findings = audit_checkpoint(tmp_path)
        assert rules(findings) == {"checkpoint/missing"}

    def test_missing_artifact(self, checkpoint):
        (checkpoint / "t1.json").unlink()
        findings = audit_checkpoint(checkpoint)
        assert rules(findings) == {"checkpoint/artifact"}
        assert "t1.json" in findings[0].message

    def test_corrupt_artifact(self, checkpoint):
        (checkpoint / "t2.json").write_text("{ torn bytes")
        findings = audit_checkpoint(checkpoint)
        assert rules(findings) == {"checkpoint/artifact"}
        assert "does not parse" in findings[0].message

    def test_non_object_artifact(self, checkpoint):
        (checkpoint / "t2.json").write_text("[1, 2]")
        findings = audit_checkpoint(checkpoint)
        assert rules(findings) == {"checkpoint/artifact"}

    def test_torn_tail_is_warning_only(self, checkpoint):
        journal = checkpoint / JOURNAL_NAME
        with journal.open("a") as handle:
            handle.write('{"type": "task", "key": "t:3", "sta')
        findings = audit_checkpoint(checkpoint)
        assert rules(findings) == {"checkpoint/truncated"}
        assert findings[0].severity is Severity.WARNING

    def test_mid_file_corruption(self, checkpoint):
        journal = checkpoint / JOURNAL_NAME
        lines = journal.read_text().splitlines()
        lines.insert(1, "{corrupt line")
        journal.write_text("\n".join(lines) + "\n")
        findings = audit_checkpoint(checkpoint)
        assert "checkpoint/parse" in rules(findings)

    def test_missing_header(self, checkpoint):
        journal = checkpoint / JOURNAL_NAME
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[1:]) + "\n")
        findings = audit_checkpoint(checkpoint)
        assert rules(findings) == {"checkpoint/header"}

    def test_bad_header_version_and_grid(self, checkpoint):
        journal = checkpoint / JOURNAL_NAME
        lines = journal.read_text().splitlines()
        header = json.loads(lines[0])
        header["version"] = 99
        header["grid"] = ""
        lines[0] = json.dumps(header)
        journal.write_text("\n".join(lines) + "\n")
        findings = audit_checkpoint(checkpoint)
        assert len(findings) == 2
        assert rules(findings) == {"checkpoint/header"}

    def test_duplicate_completion_is_warning(self, checkpoint):
        journal = checkpoint / JOURNAL_NAME
        lines = journal.read_text().splitlines()
        with journal.open("a") as handle:
            handle.write(lines[1] + "\n")
        findings = audit_checkpoint(checkpoint)
        assert rules(findings) == {"checkpoint/duplicate"}
        assert findings[0].severity is Severity.WARNING

    def test_unknown_status(self, checkpoint):
        with (checkpoint / JOURNAL_NAME).open("a") as handle:
            handle.write(
                json.dumps(
                    {"type": "task", "key": "t:9", "status": "maybe"}
                )
                + "\n"
            )
        findings = audit_checkpoint(checkpoint)
        assert rules(findings) == {"checkpoint/entry"}

    def test_failed_record_without_error_class(self, checkpoint):
        with (checkpoint / JOURNAL_NAME).open("a") as handle:
            handle.write(
                json.dumps(
                    {"type": "task", "key": "t:9", "status": "failed"}
                )
                + "\n"
            )
        findings = audit_checkpoint(checkpoint)
        assert rules(findings) == {"checkpoint/entry"}

    def test_record_without_key(self, checkpoint):
        with (checkpoint / JOURNAL_NAME).open("a") as handle:
            handle.write(
                json.dumps({"type": "task", "status": "ok"}) + "\n"
            )
        findings = audit_checkpoint(checkpoint)
        assert rules(findings) == {"checkpoint/entry"}

    @pytest.mark.parametrize("worker", [-1, "x", 1.5, True])
    def test_malformed_worker_id(self, checkpoint, worker):
        with (checkpoint / JOURNAL_NAME).open("a") as handle:
            handle.write(
                json.dumps(
                    {
                        "type": "task",
                        "key": "t:1",
                        "status": "ok",
                        "payload": {},
                        "worker": worker,
                    }
                )
                + "\n"
            )
        findings = audit_checkpoint(checkpoint)
        assert "checkpoint/entry" in rules(findings)
        assert any(
            "malformed worker id" in finding.message
            for finding in findings
        )

    def test_valid_worker_id_is_clean(self, checkpoint):
        journal = checkpoint / JOURNAL_NAME
        lines = journal.read_text().splitlines()
        record = json.loads(lines[1])
        record["worker"] = 0
        lines[1] = json.dumps(record)
        journal.write_text("\n".join(lines) + "\n")
        assert audit_checkpoint(checkpoint) == []

    def test_more_completions_than_declared(self, checkpoint):
        with (checkpoint / JOURNAL_NAME).open("a") as handle:
            for index in (3, 4):
                handle.write(
                    json.dumps(
                        {
                            "type": "task",
                            "key": f"t:{index}",
                            "status": "ok",
                            "payload": {},
                        }
                    )
                    + "\n"
                )
        findings = audit_checkpoint(checkpoint)
        assert "checkpoint/task-count" in rules(findings)


class TestDispatch:
    """``audit_run_path`` routes a journal by its canonical filename or
    by its ``repro/checkpoint`` stamp, and nothing else."""

    def test_sniff_by_name(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        path.write_text('{"type": "span", "name": "x"}\n')
        assert sniff_format(path) is None
        assert rules(audit_run_path(path)) == {"checkpoint/header"}

    def test_sniff_by_header(self, tmp_path):
        path = tmp_path / "renamed.jsonl"
        path.write_text(
            json.dumps(
                {
                    "type": "batch",
                    "format": CHECKPOINT_FORMAT,
                    "version": CHECKPOINT_VERSION,
                    "grid": "g",
                    "tasks": 0,
                }
            )
            + "\n"
        )
        assert sniff_format(path) == CHECKPOINT_FORMAT
        assert audit_run_path(path) == []

    def test_run_file_is_not_a_journal(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"type": "span", "name": "x"}\n')
        assert rules(audit_run_path(path)) == {"manifest/missing"}

    def test_audit_run_path_delegates(self, checkpoint):
        assert audit_run_path(checkpoint / JOURNAL_NAME) == []
        (checkpoint / "t1.json").unlink()
        findings = audit_run_path(checkpoint / JOURNAL_NAME)
        assert rules(findings) == {"checkpoint/artifact"}

    def test_cli_check_on_checkpoint_dir(self, checkpoint, capsys):
        from repro.cli import main

        assert main(["check", str(checkpoint)]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_cli_check_reports_damage(self, checkpoint, capsys):
        from repro.cli import main

        (checkpoint / "t1.json").write_text("{")
        assert main(["check", str(checkpoint)]) == 1
        assert "checkpoint/artifact" in capsys.readouterr().out
