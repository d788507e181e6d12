"""Tests for the full GBSC algorithm, including the paper's motivating
example (Figure 1): temporal information lets GBSC find the layout that
the WCG cannot distinguish."""

import pytest

import repro.core.gbsc
from repro.cache.config import CacheConfig
from repro.cache.simulator import simulate
from repro.core.gbsc import GBSCPlacement, gbsc_nodes
from repro.core.merge import best_offset, offset_costs_reference
from repro.eval.experiment import build_context
from repro.placement.base import PlacementContext
from repro.profiles.trg import build_trgs
from repro.profiles.wcg import build_wcg
from repro.program.program import Program
from tests.conftest import (
    figure1_trace1_refs,
    figure1_trace2_refs,
    full_trace,
)


def context_from_refs(program, refs, config, chunk_size=32):
    trace = full_trace(program, refs)
    return PlacementContext(
        program=program,
        config=config,
        wcg=build_wcg(trace),
        trgs=build_trgs(trace, config, chunk_size=chunk_size),
        popular=tuple(program.names),
    )


class TestFigure1Motivation:
    """With three cache lines and M given its own line, trace #2 wants
    X and Y to share a line (Z separate), while trace #1 wants X and Y
    separate (Z shares).  The WCG cannot tell the traces apart; the
    TRG can, and GBSC must produce the right layout for each."""

    @pytest.fixture
    def program(self, figure1_program):
        return figure1_program

    def _cache_lines(self, layout, config):
        return {
            name: layout.cache_sets_of(name, config)
            for name in layout.program.names
        }

    def test_trace2_overlaps_x_and_y(self, program, three_line_cache):
        context = context_from_refs(
            program, figure1_trace2_refs(), three_line_cache
        )
        layout = GBSCPlacement().place(context)
        lines = self._cache_lines(layout, three_line_cache)
        # M is the hottest block: nothing may conflict with it.
        assert not (lines["M"] & lines["X"])
        assert not (lines["M"] & lines["Y"])
        assert not (lines["M"] & lines["Z"])
        # Z interleaves with X and Y; X and Y never interleave.
        # Pigeonhole: X and Y must share the remaining line.
        assert lines["X"] == lines["Y"]
        assert not (lines["Z"] & lines["X"])

    def test_trace1_separates_x_and_y(self, program, three_line_cache):
        context = context_from_refs(
            program, figure1_trace1_refs(), three_line_cache
        )
        layout = GBSCPlacement().place(context)
        lines = self._cache_lines(layout, three_line_cache)
        assert not (lines["M"] & lines["X"])
        assert not (lines["M"] & lines["Y"])
        # X and Y alternate every iteration: they must not conflict.
        assert not (lines["X"] & lines["Y"])
        # Z is the block that shares a line (with X or Y).
        assert lines["Z"] in (lines["X"], lines["Y"])

    def test_gbsc_layouts_beat_wrong_assignment(
        self, program, three_line_cache
    ):
        """Simulate both traces under both GBSC layouts: each layout
        must win (or tie) on the trace it was trained for."""
        trace1 = full_trace(program, figure1_trace1_refs())
        trace2 = full_trace(program, figure1_trace2_refs())
        layout1 = GBSCPlacement().place(
            context_from_refs(program, figure1_trace1_refs(), three_line_cache)
        )
        layout2 = GBSCPlacement().place(
            context_from_refs(program, figure1_trace2_refs(), three_line_cache)
        )
        own1 = simulate(layout1, trace1, three_line_cache).misses
        cross1 = simulate(layout2, trace1, three_line_cache).misses
        own2 = simulate(layout2, trace2, three_line_cache).misses
        cross2 = simulate(layout1, trace2, three_line_cache).misses
        assert own1 <= cross1
        assert own2 <= cross2
        # And at least one of them is a strict improvement.
        assert own1 < cross1 or own2 < cross2


class TestStructure:
    @pytest.fixture
    def config(self):
        return CacheConfig(size=256, line_size=32)

    def test_all_procedures_in_layout(self, config):
        program = Program.from_sizes(
            {"a": 64, "b": 64, "c": 64, "cold": 64}
        )
        refs = ["a", "b", "a", "c", "a", "b"] * 10
        context = context_from_refs(program, refs, config)
        layout = GBSCPlacement().place(context)
        assert sorted(layout.order_by_address()) == sorted(program.names)

    def test_deterministic(self, config):
        program = Program.from_sizes({"a": 64, "b": 96, "c": 64})
        refs = ["a", "b", "c", "a", "c", "b"] * 20
        context = context_from_refs(program, refs, config)
        assert (
            GBSCPlacement().place(context)
            == GBSCPlacement().place(context)
        )

    def test_fast_and_reference_methods_agree(self, config, monkeypatch):
        """The whole algorithm is unchanged when every merge scores its
        offsets with the Figure 4 quadruple loop instead of the FFT."""
        program = Program.from_sizes({"a": 64, "b": 96, "c": 64})
        refs = ["a", "b", "c", "a", "c", "b"] * 20
        context = context_from_refs(program, refs, config)
        fast = GBSCPlacement().place(context)
        place_graph = context.trgs.place
        merges = []

        def reference_merge(n1, n2, weights):
            merges.append((n1, n2))
            costs = offset_costs_reference(
                n1, n2, place_graph, program, config, chunk_size=32
            )
            return n1.combined_with(
                n2.shifted(best_offset(costs), config.num_lines)
            )

        monkeypatch.setattr(repro.core.gbsc, "merge_nodes", reference_merge)
        assert GBSCPlacement().place(context) == fast
        assert merges, "the reference loop ran"

    def test_popular_only_merging(self, config):
        """Unpopular procedures never receive cache offsets: they trail
        or fill gaps."""
        program = Program.from_sizes({"a": 64, "b": 64, "cold": 64})
        refs = ["a", "b", "a", "cold", "a", "b"] * 10
        trace = full_trace(program, refs)
        context = PlacementContext(
            program=program,
            config=config,
            wcg=build_wcg(trace),
            trgs=build_trgs(trace, config, popular={"a", "b"}),
            popular=("a", "b"),
        )
        result = GBSCPlacement().place_detailed(context)
        placed = {
            p.name for node in result.nodes for p in node.placements
        }
        assert placed == {"a", "b"}

    def test_empty_popular_falls_back_to_trg_nodes(self, config):
        program = Program.from_sizes({"a": 64, "b": 64})
        refs = ["a", "b"] * 10
        trace = full_trace(program, refs)
        context = PlacementContext(
            program=program,
            config=config,
            wcg=build_wcg(trace),
            trgs=build_trgs(trace, config),
            popular=(),
        )
        layout = GBSCPlacement().place(context)
        assert sorted(layout.order_by_address()) == ["a", "b"]

    def test_requires_trgs(self, config):
        program = Program.from_sizes({"a": 64})
        trace = full_trace(program, ["a"])
        context = PlacementContext(
            program=program, config=config, wcg=build_wcg(trace)
        )
        from repro.errors import PlacementError

        with pytest.raises(PlacementError):
            GBSCPlacement().place(context)


class TestGBSCNodes:
    def test_disconnected_popular_stay_separate(self):
        """TRG_select need not collapse to one node (Section 4.3)."""
        config = CacheConfig(size=256, line_size=32)
        program = Program.from_sizes(
            {"a": 64, "b": 64, "c": 64, "d": 64}
        )
        refs = (["a", "b"] * 10) + (["c", "d"] * 10)
        trace = full_trace(program, refs)
        trgs = build_trgs(trace, config)
        # b->c transition happens once; drop that edge to force two
        # components (on a mutable copy: the built graph is frozen).
        select = trgs.select.copy()
        select.remove_edge("b", "c")
        select.remove_edge("a", "c")
        select.remove_edge("b", "d")
        select.remove_edge("a", "d")
        nodes = gbsc_nodes(select, trgs.place, program.names, program, config)
        assert len(nodes) == 2

    def test_merge_count_bounded_by_popular(self):
        config = CacheConfig(size=256, line_size=32)
        program = Program.from_sizes({f"p{i}": 64 for i in range(5)})
        refs = [f"p{i % 5}" for i in range(100)]
        trace = full_trace(program, refs)
        trgs = build_trgs(trace, config)
        nodes = gbsc_nodes(
            trgs.select, trgs.place, program.names, program, config
        )
        total = sum(len(node) for node in nodes)
        assert total == 5
