"""The library-level placement API: golden parity with the CLI path,
deadline behaviour and request validation."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.errors import ServiceError, TaskTimeout
from repro.io import save_layout, save_trace
from repro.service import (
    ALGORITHMS,
    CompareRequest,
    PlacementRequest,
    make_algorithm,
    run_compare,
    run_placement,
)
from repro.workloads.suite import by_name


@pytest.fixture(scope="module")
def tiny_workload():
    return by_name("m88ksim").scaled(0.02)


@pytest.fixture(scope="module")
def train_trace(tiny_workload):
    return tiny_workload.trace("train")


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory, train_trace):
    path = tmp_path_factory.mktemp("service") / "train.npz"
    save_trace(train_trace, path)
    return path


class TestGoldenParity:
    def test_layout_byte_identical_to_cli_place(self, tmp_path, trace_file):
        """``run_placement`` and ``repro-layout place`` write the same
        bytes for the same trace (the service-extraction contract)."""
        cli_out = tmp_path / "cli.json"
        assert (
            main(
                [
                    "place",
                    str(trace_file),
                    "--algorithm",
                    "gbsc",
                    "-o",
                    str(cli_out),
                ]
            )
            == 0
        )
        result = run_placement(
            PlacementRequest(trace_path=trace_file, algorithm="gbsc")
        )
        api_out = tmp_path / "api.json"
        save_layout(result.layout, api_out)
        assert api_out.read_bytes() == cli_out.read_bytes()

    def test_trace_sources_are_equivalent(self, trace_file, train_trace):
        by_path = run_placement(
            PlacementRequest(trace_path=trace_file, algorithm="default")
        )
        in_memory = run_placement(
            PlacementRequest(trace=train_trace, algorithm="default")
        )
        assert dict(by_path.layout.items()) == dict(
            in_memory.layout.items()
        )

    def test_result_fields(self, train_trace):
        result = run_placement(
            PlacementRequest(trace=train_trace, algorithm="gbsc")
        )
        assert result.algorithm == "GBSC"
        assert len(result.layout.program) == len(train_trace.program)
        assert 0.0 <= result.train_stats.miss_rate <= 1.0
        assert result.train_stats.fetches > 0
        assert result.elapsed >= 0.0


class TestDeadline:
    def test_overrun_raises_task_timeout(self, train_trace):
        with pytest.raises(TaskTimeout):
            run_placement(
                PlacementRequest(
                    trace=train_trace,
                    algorithm="default",
                    deadline=1e-9,
                )
            )

    def test_generous_deadline_passes(self, train_trace):
        result = run_placement(
            PlacementRequest(
                trace=train_trace, algorithm="default", deadline=3600.0
            )
        )
        assert result.train_stats.fetches > 0

    def test_pipeline_errors_win_over_the_deadline(self, tmp_path):
        """A failing attempt re-raises its own error, never a timeout."""
        with pytest.raises(Exception) as excinfo:
            run_placement(
                PlacementRequest(
                    trace_path=tmp_path / "absent.npz",
                    algorithm="default",
                    deadline=1e-9,
                )
            )
        assert not isinstance(excinfo.value, TaskTimeout)


class TestValidation:
    def test_no_trace_source(self):
        with pytest.raises(ServiceError):
            run_placement(PlacementRequest())

    def test_two_trace_sources(self, train_trace):
        with pytest.raises(ServiceError):
            run_placement(
                PlacementRequest(trace=train_trace, workload="perl")
            )

    def test_unknown_algorithm(self, train_trace):
        with pytest.raises(ServiceError):
            run_placement(
                PlacementRequest(trace=train_trace, algorithm="nope")
            )

    def test_bad_which(self, train_trace):
        with pytest.raises(ServiceError):
            run_placement(
                PlacementRequest(workload="perl", which="validation")
            )

    def test_non_positive_deadline(self, train_trace):
        with pytest.raises(ServiceError):
            run_placement(
                PlacementRequest(trace=train_trace, deadline=0)
            )

    @pytest.mark.parametrize(
        "deadline", [float("nan"), float("inf"), float("-inf")]
    )
    def test_non_finite_deadline(self, train_trace, deadline):
        """NaN compares false with everything, so without this check it
        slipped past ``<= 0`` and the request ran with no deadline."""
        with pytest.raises(ServiceError, match="finite"):
            PlacementRequest(trace=train_trace, deadline=deadline).validate()

    def test_boolean_deadline(self, train_trace):
        with pytest.raises(ServiceError):
            run_placement(
                PlacementRequest(trace=train_trace, deadline=True)
            )

    def test_bad_trg_method(self, train_trace):
        """The TRG pipeline is not a request field."""
        with pytest.raises(TypeError):
            PlacementRequest(trace=train_trace, trg_method="scalar")

    def test_make_algorithm_rejects_unknown(self):
        with pytest.raises(ServiceError):
            make_algorithm("nope")

    def test_registry_instantiates(self):
        for name in ALGORITHMS:
            assert make_algorithm(name).name


class TestCompare:
    def test_echo_lines_match_cli_stdout(
        self, tiny_workload, capsys, monkeypatch
    ):
        """``repro-layout compare`` output is exactly the run_compare
        echo stream — the CLI is a thin frontend."""
        from repro import cli

        monkeypatch.setattr(cli, "by_name", lambda _n: tiny_workload)
        assert main(["compare", "m88ksim"]) == 0
        cli_lines = capsys.readouterr().out.splitlines()

        echoed: list[str] = []
        results = run_compare(
            CompareRequest(workload=tiny_workload), echo=echoed.append
        )
        assert echoed == cli_lines
        assert [name for name, _ in results]
        for _, stats in results:
            assert 0.0 <= stats.miss_rate <= 1.0

    def test_negative_runs_rejected(self, tiny_workload):
        with pytest.raises(ServiceError):
            run_compare(CompareRequest(workload=tiny_workload, runs=-1))
