"""Tests for workload definitions and caching."""

import pytest

from repro.errors import ConfigError
from repro.trace.callgraph import CallGraphParams
from repro.trace.generator import TraceInput
from repro.workloads.spec import Workload


@pytest.fixture
def workload() -> Workload:
    return Workload(
        name="mini",
        graph_params=CallGraphParams(
            n_procedures=30, hot_procedures=6, seed=5
        ),
        train=TraceInput("train", seed=1, target_events=2000),
        test=TraceInput("test", seed=2, target_events=2500),
    )


class TestWorkload:
    def test_program_derivation(self, workload):
        assert len(workload.program) == 30

    def test_traces_memoised(self, workload):
        assert workload.trace("train") is workload.trace("train")

    def test_train_and_test_differ(self, workload):
        train = workload.trace("train")
        test = workload.trace("test")
        assert list(train.proc_indices) != list(test.proc_indices)

    def test_unknown_selector(self, workload):
        with pytest.raises(ConfigError):
            workload.trace("validation")

    def test_scaled_changes_lengths(self, workload):
        scaled = workload.scaled(0.5)
        assert scaled.train.target_events == 1000
        assert scaled.test.target_events == 1250
        assert scaled.graph_params == workload.graph_params

    def test_scaled_floor(self, workload):
        scaled = workload.scaled(0.0001)
        assert scaled.train.target_events == 1000  # floor

    def test_scaled_invalid(self, workload):
        with pytest.raises(ConfigError):
            workload.scaled(0)

    @pytest.mark.parametrize(
        "factor", [float("nan"), float("inf"), float("-inf")]
    )
    def test_scaled_non_finite(self, workload, factor):
        with pytest.raises(ConfigError, match="finite"):
            workload.scaled(factor)

    def test_call_graph_shared_across_equal_params(self, workload):
        other = Workload(
            name="other",
            graph_params=workload.graph_params,
            train=workload.train,
            test=workload.test,
        )
        assert workload.call_graph() is other.call_graph()
