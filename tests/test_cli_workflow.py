"""Tests for the file-based CLI workflow (gen-trace / place / simulate)."""

import pytest

from repro.cli import main
from repro.io import load_layout, load_trace


@pytest.fixture
def tiny_workload(monkeypatch):
    """Route CLI workload lookups to a 2%-scale m88ksim analog."""
    from repro import cli
    from repro.workloads import suite as suite_module

    tiny = suite_module.by_name("m88ksim").scaled(0.02)
    monkeypatch.setattr(cli, "by_name", lambda _n: tiny)
    return tiny


class TestGenTrace:
    def test_writes_loadable_trace(self, tiny_workload, tmp_path, capsys):
        path = tmp_path / "trace.npz"
        assert (
            main(["gen-trace", "m88ksim", "--which", "train", "-o", str(path)])
            == 0
        )
        trace = load_trace(path)
        assert len(trace) >= 1000
        assert "wrote train trace" in capsys.readouterr().out

    def test_scale_flag(self, tiny_workload, tmp_path):
        path = tmp_path / "trace.npz"
        main(["gen-trace", "m88ksim", "--scale", "0.5", "-o", str(path)])
        assert len(load_trace(path)) >= 1000


class TestPlaceAndSimulate:
    @pytest.fixture
    def trace_file(self, tiny_workload, tmp_path):
        path = tmp_path / "train.npz"
        main(["gen-trace", "m88ksim", "--which", "train", "-o", str(path)])
        return path

    @pytest.mark.parametrize(
        "algorithm", ["default", "ph", "hkc", "gbsc", "txd"]
    )
    def test_place_each_algorithm(self, trace_file, tmp_path, algorithm):
        out = tmp_path / f"{algorithm}.json"
        assert (
            main(
                [
                    "place",
                    str(trace_file),
                    "--algorithm",
                    algorithm,
                    "-o",
                    str(out),
                ]
            )
            == 0
        )
        layout = load_layout(out)
        trace = load_trace(trace_file)
        assert sorted(layout.order_by_address()) == sorted(
            trace.program.names
        )

    def test_simulate_round_trip(self, trace_file, tmp_path, capsys):
        layout_path = tmp_path / "layout.json"
        main(["place", str(trace_file), "-o", str(layout_path)])
        capsys.readouterr()
        assert (
            main(["simulate", str(layout_path), str(trace_file)]) == 0
        )
        out = capsys.readouterr().out
        assert "miss rate" in out

    def test_simulate_stdout_is_reproducible(
        self, trace_file, tmp_path, capsys
    ):
        """Two runs on the same inputs print the same bytes: the
        elapsed time goes to stderr."""
        layout_path = tmp_path / "layout.json"
        main(["place", str(trace_file), "-o", str(layout_path)])
        capsys.readouterr()
        runs = []
        for _ in range(2):
            assert main(["simulate", str(layout_path), str(trace_file)]) == 0
            runs.append(capsys.readouterr())
        assert runs[0].out == runs[1].out
        assert "elapsed" not in runs[0].out
        assert "simulate elapsed" in runs[0].err

    def test_simulate_respects_cache_flags(
        self, trace_file, tmp_path, capsys
    ):
        layout_path = tmp_path / "layout.json"
        main(["place", str(trace_file), "-o", str(layout_path)])
        capsys.readouterr()
        main(
            [
                "simulate",
                str(layout_path),
                str(trace_file),
                "--cache-size",
                "2048",
            ]
        )
        small = capsys.readouterr().out
        main(["simulate", str(layout_path), str(trace_file)])
        big = capsys.readouterr().out
        assert small != big


class TestAnalysisCommands:
    @pytest.fixture
    def artifacts(self, tiny_workload, tmp_path):
        trace_path = tmp_path / "train.npz"
        layout_path = tmp_path / "layout.json"
        main(["gen-trace", "m88ksim", "-o", str(trace_path)])
        main(["place", str(trace_path), "-o", str(layout_path)])
        return layout_path, trace_path

    def test_visualize(self, artifacts, capsys):
        layout_path, _ = artifacts
        capsys.readouterr()
        assert main(["visualize", str(layout_path), "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "cache occupancy" in out
        assert "procedure" in out

    def test_memory(self, artifacts, capsys):
        layout_path, trace_path = artifacts
        capsys.readouterr()
        assert (
            main(["memory", str(layout_path), str(trace_path)]) == 0
        )
        out = capsys.readouterr().out
        assert "reuse distances" in out
        assert "faults over" in out


class TestSpecWorkflow:
    def test_gen_trace_from_spec(self, tmp_path, capsys):
        import json

        spec = {
            "format": "repro/workload",
            "version": 1,
            "name": "demo",
            "graph": {
                "n_procedures": 25,
                "hot_procedures": 5,
                "seed": 9,
            },
            "train": {"seed": 1, "target_events": 1500},
            "test": {"seed": 2, "target_events": 1500},
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "demo.npz"
        assert (
            main(["gen-trace", "--spec", str(spec_path), "-o", str(out)])
            == 0
        )
        trace = load_trace(out)
        assert len(trace) >= 1500
        assert "demo" in capsys.readouterr().out
