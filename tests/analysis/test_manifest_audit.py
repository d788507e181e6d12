"""Run-manifest auditing: every rule fires on a corrupted manifest and
stays quiet on a healthy one; ``check`` reports manifest-less runs."""

from __future__ import annotations

import json

import pytest

from repro.analysis import audit_manifest, audit_run_path
from repro.cli import main
from repro.errors import AnalysisError
from repro.obs import MANIFEST_FORMAT, MANIFEST_VERSION, load_run_manifest


def clean_manifest() -> dict:
    return {
        "type": "manifest",
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "command": "place",
        "config": {},
        "git": None,
        "unix_time": 0.0,
        "elapsed": 0.2,
        "timings": [
            {
                "name": "build_context",
                "start": 0.0,
                "duration": 0.1,
                "children": [
                    {"name": "build_wcg", "start": 0.0, "duration": 0.03},
                    {"name": "build_trgs", "start": 0.03, "duration": 0.06},
                ],
            }
        ],
        "metrics": {
            "cache.sim.accesses": {"kind": "counter", "value": 100},
            "cache.sim.misses": {"kind": "counter", "value": 30},
            "cache.sim.hits": {"kind": "counter", "value": 70},
            "gap.sizes": {
                "kind": "histogram",
                "edges": [32],
                "counts": [2, 1],
                "count": 3,
                "sum": 96,
                "min": 16,
                "max": 64,
            },
        },
    }


def rules_of(findings) -> set[str]:
    return {finding.rule for finding in findings}


class TestAuditManifest:
    def test_clean_manifest_has_no_findings(self):
        assert audit_manifest(clean_manifest()) == []

    def test_non_manifest_input_raises(self):
        with pytest.raises(AnalysisError):
            audit_manifest({"format": "repro/layout"})

    def test_wrong_version_flagged(self):
        manifest = clean_manifest()
        manifest["version"] = 99
        assert rules_of(audit_manifest(manifest)) == {"manifest/version"}

    def test_negative_duration_flagged(self):
        manifest = clean_manifest()
        manifest["timings"][0]["duration"] = -1.0
        findings = audit_manifest(manifest)
        assert "manifest/timing-tree" in rules_of(findings)

    def test_children_exceeding_parent_flagged(self):
        manifest = clean_manifest()
        manifest["timings"][0]["children"][0]["duration"] = 5.0
        findings = audit_manifest(manifest)
        assert rules_of(findings) == {"manifest/timing-tree"}
        assert any("build_context" in f.message for f in findings)

    def test_negative_counter_flagged(self):
        manifest = clean_manifest()
        manifest["metrics"]["cache.sim.misses"]["value"] = -3
        findings = audit_manifest(manifest)
        assert "manifest/counter-negative" in rules_of(findings)

    def test_histogram_bucket_count_mismatch_flagged(self):
        manifest = clean_manifest()
        manifest["metrics"]["gap.sizes"]["counts"] = [2, 1, 7]
        findings = audit_manifest(manifest)
        assert "manifest/histogram" in rules_of(findings)

    def test_histogram_count_sum_mismatch_flagged(self):
        manifest = clean_manifest()
        manifest["metrics"]["gap.sizes"]["count"] = 99
        assert "manifest/histogram" in rules_of(audit_manifest(manifest))

    def test_miss_counters_must_reconcile(self):
        manifest = clean_manifest()
        manifest["metrics"]["cache.sim.hits"]["value"] = 71
        findings = audit_manifest(manifest)
        assert rules_of(findings) == {"manifest/miss-reconcile"}

    def test_misses_above_accesses_flagged(self):
        manifest = clean_manifest()
        manifest["metrics"]["cache.sim.misses"]["value"] = 1000
        assert "manifest/miss-reconcile" in rules_of(
            audit_manifest(manifest)
        )

    def test_partial_cache_counters_flagged(self):
        manifest = clean_manifest()
        del manifest["metrics"]["cache.sim.hits"]
        assert "manifest/miss-reconcile" in rules_of(
            audit_manifest(manifest)
        )


class TestRunPath:
    def test_jsonl_file_with_manifest(self, tmp_path):
        run = tmp_path / "run.jsonl"
        run.write_text(json.dumps(clean_manifest()) + "\n")
        assert audit_run_path(run) == []
        assert load_run_manifest(run)["command"] == "place"

    def test_manifest_less_file_is_a_finding(self, tmp_path):
        run = tmp_path / "run.jsonl"
        run.write_text('{"type": "span", "name": "a"}\n')
        findings = audit_run_path(run)
        assert rules_of(findings) == {"manifest/missing"}
        with pytest.raises(AnalysisError):
            load_run_manifest(run)

    def test_empty_directory_is_a_finding(self, tmp_path):
        findings = audit_run_path(tmp_path)
        assert rules_of(findings) == {"manifest/missing"}

    def test_directory_audits_every_run_file(self, tmp_path):
        good = clean_manifest()
        (tmp_path / "good.jsonl").write_text(json.dumps(good) + "\n")
        bad = clean_manifest()
        bad["version"] = 99
        (tmp_path / "bad.jsonl").write_text(json.dumps(bad) + "\n")
        findings = audit_run_path(tmp_path)
        assert rules_of(findings) == {"manifest/version"}

    def test_missing_path_is_a_finding(self, tmp_path):
        findings = audit_run_path(tmp_path / "never-ran")
        assert rules_of(findings) == {"manifest/missing"}


class TestCheckCommand:
    def test_check_clean_run_file_exits_0(self, tmp_path, capsys):
        run = tmp_path / "run.jsonl"
        run.write_text(json.dumps(clean_manifest()) + "\n")
        assert main(["check", str(run)]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_check_manifest_less_directory_exits_1(self, tmp_path, capsys):
        assert main(["check", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "manifest/missing" in out

    def test_check_torn_run_file_is_manifest_less(self, tmp_path, capsys):
        run = tmp_path / "run.jsonl"
        run.write_text('{"type": "span", "name": "a"}\n{"type": "man')
        assert main(["check", str(run)]) == 1
        assert "manifest/missing" in capsys.readouterr().out

    def test_check_corruption_before_tail_exits_2(self, tmp_path, capsys):
        run = tmp_path / "run.jsonl"
        run.write_text('{bad\n' + json.dumps(clean_manifest()) + "\n")
        assert main(["check", str(run)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_check_run_dir_with_torn_run_file_reports_store(
        self, tmp_path, capsys
    ):
        from repro.store import ArtifactStore, artifact_digest

        store = ArtifactStore(tmp_path / "store")
        store.put(artifact_digest("trace", {"trace": "a"}), "trace", b"x")
        orphan = store.root / "objects" / "ab" / ("ab" + "0" * 62)
        orphan.parent.mkdir(parents=True, exist_ok=True)
        orphan.write_bytes(b"orphan")
        (tmp_path / "run.jsonl").write_text('{"type": "span"}\n{"ty')
        assert main(["check", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "manifest/missing" in out
        assert "cache/orphan-blob" in out

    def test_check_corrupt_run_file_exits_1(self, tmp_path, capsys):
        manifest = clean_manifest()
        manifest["metrics"]["cache.sim.misses"]["value"] = -1
        run = tmp_path / "run.jsonl"
        run.write_text(json.dumps(manifest) + "\n")
        assert main(["check", str(run)]) == 1
        assert "manifest/counter-negative" in capsys.readouterr().out
