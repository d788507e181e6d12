"""Generated traces are keyed by their recipe, not by their content.

A suite trace is fully fixed by its program's ``CallGraphParams``, its
``TraceInput`` and the generator's salt, so the store keys it by those
alone: a warm hit needs no call graph, and every way of asking for the
same trace lands on the same store entry.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.program.procedure import Procedure
from repro.store import ArtifactStore
from repro.trace.callgraph import (
    CallGraphModel,
    CallSite,
    ProcedureModel,
    random_call_graph,
)
from repro.trace.generator import TraceInput, get_or_generate_trace
from repro.workloads import spec
from repro.workloads.spec import clear_trace_memo


def _same(a, b) -> bool:
    return (
        np.array_equal(a.proc_indices, b.proc_indices)
        and np.array_equal(a.extent_starts, b.extent_starts)
        and np.array_equal(a.extent_lengths, b.extent_lengths)
    )


@pytest.fixture
def graph_builds(monkeypatch):
    """Count ``random_call_graph`` calls from a cold call-graph cache."""
    calls = []

    def counting(params):
        calls.append(params)
        return random_call_graph(params)

    spec._cached_call_graph.cache_clear()
    monkeypatch.setattr(spec, "random_call_graph", counting)
    yield calls
    spec._cached_call_graph.cache_clear()


def _cold_caches() -> None:
    clear_trace_memo()
    spec._cached_call_graph.cache_clear()


class TestOneEntryPerRecipe:
    def test_benchmark_call_and_workload_share_the_entry(
        self, tiny_workload, tmp_path
    ):
        """``get_or_generate_trace(random_call_graph(p), inp, store)``,
        as the benchmarks call it, and ``Workload.trace`` hit one
        store entry."""
        store = ArtifactStore(tmp_path / "s")
        graph = random_call_graph(tiny_workload.graph_params)
        direct = get_or_generate_trace(graph, tiny_workload.train, store)
        assert (store.hits, store.misses) == (0, 1)
        via_workload = tiny_workload.trace("train", store)
        assert (store.hits, store.misses) == (1, 1)
        assert _same(direct, via_workload)
        assert store.stats()["kinds"]["trace"]["entries"] == 1

        clear_trace_memo()
        tiny_workload.trace("test", store)
        again = get_or_generate_trace(graph, tiny_workload.test, store)
        assert (store.hits, store.misses) == (2, 2)
        assert _same(again, tiny_workload.trace("test"))

    def test_hand_built_graph_with_a_store_is_a_config_error(
        self, tmp_path
    ):
        graph = CallGraphModel(
            "root",
            {
                "root": ProcedureModel(
                    Procedure("root", 64),
                    (CallSite("leaf", 1.0),),
                    mean_invocations=2.0,
                ),
                "leaf": ProcedureModel(Procedure("leaf", 64)),
            },
        )
        assert graph.params is None
        inp = TraceInput("train", 1, 200)
        store = ArtifactStore(tmp_path / "s")
        with pytest.raises(ConfigError, match="hand-built"):
            get_or_generate_trace(graph, inp, store)
        assert store.stats()["entries"] == 0
        # Without a store there is nothing to key, so it generates.
        assert len(get_or_generate_trace(graph, inp)) > 0


class TestWarmHitsBuildNoCallGraph:
    def test_workload_trace(self, tiny_workload, tmp_path, graph_builds):
        store = ArtifactStore(tmp_path / "s")
        cold = [tiny_workload.trace(which, store) for which in ("train", "test")]
        assert graph_builds == [tiny_workload.graph_params]

        _cold_caches()
        warm = [tiny_workload.trace(which, store) for which in ("train", "test")]
        assert graph_builds == [tiny_workload.graph_params]
        assert store.hits == 2
        assert all(_same(a, b) for a, b in zip(cold, warm))

    def test_warm_compare(self, tiny_workload, tmp_path, capsys, graph_builds):
        argv = ["compare", "m88ksim", "--fast", "--cache", str(tmp_path / "s")]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert len(graph_builds) == 1

        _cold_caches()
        assert main(argv) == 0
        assert capsys.readouterr().out == cold
        assert len(graph_builds) == 1

    def test_warm_table1(self, tmp_path, capsys, graph_builds, monkeypatch):
        from repro.service import experiments
        from repro.workloads.suite import SUITE

        monkeypatch.setattr(
            experiments, "SUITE", [w.scaled(0.08) for w in SUITE]
        )
        argv = ["table1", "--fast", "--cache", str(tmp_path / "s")]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert len(graph_builds) == len(SUITE)

        _cold_caches()
        assert main(argv) == 0
        assert capsys.readouterr().out == cold
        assert len(graph_builds) == len(SUITE)
