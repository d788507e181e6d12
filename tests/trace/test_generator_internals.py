"""Tests for generator internals: site choice, phase tables, extents."""

import random
from types import SimpleNamespace

import pytest

from repro.program.procedure import Procedure
from repro.trace.callgraph import CallGraphModel, CallSite, ProcedureModel
from repro.trace import generator
from repro.trace.generator import (
    TraceInput,
    _PhaseTables,
    generate_trace,
)


def two_leaf_graph() -> CallGraphModel:
    models = {
        "root": ProcedureModel(
            procedure=Procedure("root", 64),
            call_sites=(CallSite("x", 1.0), CallSite("y", 1.0)),
            mean_invocations=8.0,
        ),
        "x": ProcedureModel(procedure=Procedure("x", 64)),
        "y": ProcedureModel(procedure=Procedure("y", 64)),
    }
    return CallGraphModel("root", models)


def scripted_calls(monkeypatch, weights, site_draws):
    """The callees a root with call-site *weights* picks when each
    site draw returns the next of *site_draws* (as a fraction of
    ``random()``'s range; every other draw returns 0.5).

    Leaves are 64 bytes with no calls, so the root's activation runs
    ``1 + int(ln 2 * 8) = 6`` calls, each drawing site, callee extent
    and resume extent in that order.
    """
    draws = iter([0.5, 0.5] + [v for d in site_draws for v in (d, 0.5, 0.5)])

    class Scripted:
        def __init__(self, seed=None):
            pass

        def random(self):
            return next(draws, 0.5)

    monkeypatch.setattr(generator, "_random", SimpleNamespace(Random=Scripted))
    callees = [f"c{i}" for i in range(len(weights))]
    models = {
        "root": ProcedureModel(
            procedure=Procedure("root", 64),
            call_sites=tuple(map(CallSite, callees, weights)),
            mean_invocations=8.0,
        ),
        **{c: ProcedureModel(procedure=Procedure(c, 64)) for c in callees},
    }
    inp = TraceInput(
        "t",
        seed=0,
        target_events=2 * len(site_draws) + 1,
        phases=1,
        phase_skew=0.0,
    )
    trace = generate_trace(CallGraphModel("root", models), inp)
    return [event.procedure for event in trace][1::2][: len(site_draws)]


class TestBisect:
    """The call site is the first whose cumulative weight exceeds the
    draw, clipped to the last site."""

    def test_finds_first_exceeding(self, monkeypatch):
        # Cumulative weights [1, 3, 6]; draws land at 0.5, 1, 2.9,
        # 5.9 and the very top of the range.
        picked = scripted_calls(
            monkeypatch, [1.0, 2.0, 3.0], [0.5 / 6, 1 / 6, 2.9 / 6, 5.9 / 6, 1.0]
        )
        assert picked == ["c0", "c1", "c1", "c2", "c2"]

    def test_single_entry(self, monkeypatch):
        assert scripted_calls(monkeypatch, [2.0], [0.0, 0.75, 1.0]) == ["c0"] * 3


class TestPhaseTables:
    def test_cached_per_phase(self):
        graph = two_leaf_graph()
        inp = TraceInput("t", seed=1, target_events=100, phases=2)
        tables = _PhaseTables(graph, inp)
        first = tables.sites_for(graph.model_of("root"), 0)
        again = tables.sites_for(graph.model_of("root"), 0)
        assert first is again

    def test_phases_reweight_sites(self):
        graph = two_leaf_graph()
        inp = TraceInput(
            "t", seed=1, target_events=100, phases=2, phase_skew=1.5
        )
        tables = _PhaseTables(graph, inp)
        phase0, _ = tables.sites_for(graph.model_of("root"), 0)
        phase1, _ = tables.sites_for(graph.model_of("root"), 1)
        assert phase0 != phase1

    def test_zero_skew_keeps_base_weights(self):
        graph = two_leaf_graph()
        inp = TraceInput(
            "t", seed=1, target_events=100, phases=3, phase_skew=0.0
        )
        tables = _PhaseTables(graph, inp)
        cumulative, callees = tables.sites_for(graph.model_of("root"), 2)
        assert cumulative == [1.0, 2.0]
        assert callees == ["x", "y"]

    def test_leaf_has_no_sites(self):
        graph = two_leaf_graph()
        inp = TraceInput("t", seed=1, target_events=100)
        tables = _PhaseTables(graph, inp)
        cumulative, callees = tables.sites_for(graph.model_of("x"), 0)
        assert cumulative == []
        assert callees == []


class TestLeafOnlyRoot:
    def test_root_without_sites_still_generates(self):
        graph = CallGraphModel(
            "solo",
            {"solo": ProcedureModel(procedure=Procedure("solo", 128))},
        )
        trace = generate_trace(
            graph, TraceInput("t", seed=0, target_events=50)
        )
        assert len(trace) >= 50
        assert trace.touched_procedures() == {"solo"}


class TestExtentWrap:
    def test_cursor_wraps_emit_two_events(self):
        """A large body fraction forces cursor wraps, which must split
        into two in-bounds extents rather than run off the end."""
        graph = two_leaf_graph()
        trace = generate_trace(
            graph,
            TraceInput("t", seed=3, target_events=500, body_scale=2.0),
        )
        for event in trace:
            size = graph.program.size_of(event.procedure)
            assert 0 <= event.start < size
            assert event.start + event.length <= size
