"""Error-path tests for the CLI: bad inputs must fail loudly.

``main`` catches :class:`~repro.errors.ReproError` at the top level
and turns it into exit code 2 with a one-line ``error: ...`` message
on stderr — no traceback.  Programming errors still propagate.
"""

import pytest

from repro.cli import main


def _assert_error_exit(capsys, argv: list[str], fragment: str) -> None:
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert fragment in captured.err
    assert len(captured.err.strip().splitlines()) == 1


class TestBadInputs:
    def test_unknown_workload_exits_2(self, capsys):
        _assert_error_exit(
            capsys, ["compare", "not-a-benchmark"], "unknown workload"
        )

    def test_place_missing_trace_file(self, capsys, tmp_path):
        _assert_error_exit(
            capsys,
            [
                "place",
                str(tmp_path / "absent.npz"),
                "-o",
                str(tmp_path / "out.json"),
            ],
            "absent.npz",
        )

    def test_simulate_missing_layout(self, capsys, tmp_path):
        trace = tmp_path / "absent.npz"
        layout = tmp_path / "absent.json"
        _assert_error_exit(
            capsys, ["simulate", str(layout), str(trace)], "absent.json"
        )

    def test_simulate_garbage_layout(self, capsys, tmp_path):
        layout = tmp_path / "garbage.json"
        layout.write_text('{"format": "something-else"}')
        _assert_error_exit(
            capsys,
            ["simulate", str(layout), str(tmp_path / "t.npz")],
            "repro/layout",
        )

    @pytest.mark.parametrize("command", ["simulate", "memory"])
    def test_trace_of_another_program_exits_2(self, capsys, tmp_path, command):
        from repro.io import save_layout, save_trace
        from repro.program.layout import Layout
        from repro.program.program import Program
        from tests.conftest import full_trace

        layout = tmp_path / "layout.json"
        trace = tmp_path / "trace.npz"
        save_layout(Layout.default(Program.from_sizes({"a": 64})), layout)
        other = Program.from_sizes({"x": 96, "y": 32})
        save_trace(full_trace(other, ["x", "y", "x"]), trace)
        assert main([command, str(layout), str(trace)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the trace and the layout describe different programs\n"
        )

    def test_visualize_garbage_layout(self, capsys, tmp_path):
        layout = tmp_path / "garbage.json"
        layout.write_text("[]")
        _assert_error_exit(capsys, ["visualize", str(layout)], "payload")

    def test_invalid_cache_geometry(self, capsys, monkeypatch):
        """A cache size not divisible by the line size is a ConfigError
        caught before any heavy work."""
        from repro import cli
        from repro.workloads import suite as suite_module

        tiny = suite_module.by_name("m88ksim").scaled(0.02)
        monkeypatch.setattr(cli, "by_name", lambda _n: tiny)
        _assert_error_exit(
            capsys,
            ["compare", "m88ksim", "--cache-size", "1000"],
            "not a multiple",
        )

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_non_finite_scale_exits_2(self, capsys, tmp_path, scale):
        _assert_error_exit(
            capsys,
            [
                "gen-trace",
                "perl",
                "--scale",
                scale,
                "-o",
                str(tmp_path / "x.npz"),
            ],
            "scale factor must be finite",
        )
        assert not (tmp_path / "x.npz").exists()

    def test_oversized_cache_exits_2(self, capsys, tmp_path):
        """A 2**40-byte cache is refused up front instead of allocating
        per-line state until the process runs out of memory."""
        from repro.io import save_trace
        from repro.program.program import Program
        from tests.conftest import full_trace

        program = Program.from_sizes({"a": 64, "b": 64})
        trace_path = tmp_path / "t.npz"
        save_trace(full_trace(program, ["a", "b", "a"]), trace_path)
        _assert_error_exit(
            capsys,
            [
                "place",
                str(trace_path),
                "-o",
                str(tmp_path / "layout.json"),
                "--cache-size",
                str(2**40),
            ],
            "exceeds the limit of 65536 lines",
        )
        assert not (tmp_path / "layout.json").exists()

    def test_check_missing_artifact_exits_2(self, capsys, tmp_path):
        _assert_error_exit(
            capsys, ["check", str(tmp_path / "absent.json")], "absent.json"
        )

    def test_check_binary_artifact_exits_2(self, capsys, tmp_path):
        artifact = tmp_path / "trace.npz"
        artifact.write_bytes(b"PK\x03\x04\xff\xfe\x00binary")
        _assert_error_exit(
            capsys, ["check", str(artifact)], "cannot read"
        )

    def test_check_unsupported_format_exits_2(self, capsys, tmp_path):
        artifact = tmp_path / "trace-like.json"
        artifact.write_text('{"format": "repro/trace"}')
        _assert_error_exit(
            capsys, ["check", str(artifact)], "cannot audit"
        )

    def test_lint_missing_path_exits_2(self, capsys, tmp_path):
        _assert_error_exit(
            capsys, ["lint", str(tmp_path / "nowhere")], "does not exist"
        )

    def test_lint_unknown_rule_exits_2(self, capsys, tmp_path):
        module = tmp_path / "m.py"
        module.write_text("x = 1\n")
        _assert_error_exit(
            capsys,
            ["lint", str(module), "--select", "det/no-such-rule"],
            "unknown lint rule",
        )

    def test_keyboard_interrupt_exits_130(self, capsys, monkeypatch):
        """Ctrl-C is not an error: one-line resume hint, exit 130
        (128 + SIGINT), no traceback."""
        from repro import cli

        def interrupted(_name):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "by_name", interrupted)
        assert cli.main(["compare", "m88ksim"]) == 130
        captured = capsys.readouterr()
        assert captured.err.strip() == (
            "interrupted — resume with --resume"
        )
        assert "Traceback" not in captured.err

    def test_simulated_kill_exits_137(self, monkeypatch):
        from repro import cli
        from repro.errors import SimulatedKill

        def killed(_name):
            raise SimulatedKill

        monkeypatch.setattr(cli, "by_name", killed)
        assert cli.main(["compare", "m88ksim"]) == 137

    def test_unknown_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_place_unknown_algorithm_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "place",
                    "t.npz",
                    "--algorithm",
                    "magic",
                    "-o",
                    "out.json",
                ]
            )
