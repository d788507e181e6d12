"""Tests for the Figure 4 merge_nodes step."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.config import CacheConfig
from repro.core.merge import (
    ChunkWeights,
    MergeNode,
    PlacedProcedure,
    best_offset,
    line_occupancy,
    merge_nodes,
    offset_costs_fast,
    offset_costs_reference,
)
from repro.errors import PlacementError
from repro.profiles.graph import WeightedGraph, freeze
from repro.program.procedure import ChunkId
from repro.program.program import Program


@pytest.fixture
def config() -> CacheConfig:
    return CacheConfig(size=256, line_size=32)  # 8 lines


class TestMergeNode:
    def test_single(self):
        node = MergeNode.single("a")
        assert node.placements == (PlacedProcedure("a", 0),)

    def test_duplicate_rejected(self):
        with pytest.raises(PlacementError):
            MergeNode([PlacedProcedure("a", 0), PlacedProcedure("a", 1)])

    def test_negative_offset_rejected(self):
        with pytest.raises(PlacementError):
            PlacedProcedure("a", -1)

    def test_shifted_wraps(self):
        node = MergeNode([PlacedProcedure("a", 6)])
        shifted = node.shifted(4, num_lines=8)
        assert shifted.offset_of("a") == 2

    def test_offset_of_unknown(self):
        with pytest.raises(PlacementError):
            MergeNode.single("a").offset_of("b")

    def test_combined(self):
        combined = MergeNode.single("a").combined_with(MergeNode.single("b"))
        assert combined.names == ("a", "b")

    def test_equality_order_insensitive(self):
        n1 = MergeNode([PlacedProcedure("a", 0), PlacedProcedure("b", 2)])
        n2 = MergeNode([PlacedProcedure("b", 2), PlacedProcedure("a", 0)])
        assert n1 == n2


class TestLineOccupancy:
    def test_small_procedure(self, config):
        program = Program.from_sizes({"a": 64})
        occupancy = line_occupancy(
            MergeNode.single("a"), program, config, chunk_size=256
        )
        assert occupancy[0] == [ChunkId("a", 0)]
        assert occupancy[1] == [ChunkId("a", 0)]
        assert occupancy[2] == []

    def test_offset_placement(self, config):
        program = Program.from_sizes({"a": 32})
        node = MergeNode([PlacedProcedure("a", 5)])
        occupancy = line_occupancy(node, program, config, chunk_size=256)
        assert occupancy[5] == [ChunkId("a", 0)]
        assert sum(len(line) for line in occupancy) == 1

    def test_wrap_around(self, config):
        program = Program.from_sizes({"a": 96})
        node = MergeNode([PlacedProcedure("a", 6)])
        occupancy = line_occupancy(node, program, config, chunk_size=256)
        assert occupancy[6] == [ChunkId("a", 0)]
        assert occupancy[7] == [ChunkId("a", 0)]
        assert occupancy[0] == [ChunkId("a", 0)]

    def test_chunk_boundaries(self, config):
        program = Program.from_sizes({"a": 512})
        occupancy = line_occupancy(
            MergeNode.single("a"), program, config, chunk_size=256
        )
        # 512 bytes = 16 lines wrap twice over 8 lines; lines 0..7 get
        # chunk 0 (bytes 0-255) and chunk 1 (bytes 256-511).
        assert occupancy[0] == [ChunkId("a", 0), ChunkId("a", 1)]

    def test_larger_than_cache_procedure(self, config):
        program = Program.from_sizes({"a": 1024})
        occupancy = line_occupancy(
            MergeNode.single("a"), program, config, chunk_size=256
        )
        for line in occupancy:
            assert len(line) == 4  # 1024/256 bytes per line slot


class TestOffsetCosts:
    def test_zero_when_no_edges(self, config):
        program = Program.from_sizes({"a": 64, "b": 64})
        graph = WeightedGraph()
        costs = offset_costs_fast(
            MergeNode.single("a"),
            MergeNode.single("b"),
            graph,
            program,
            config,
        )
        assert np.all(costs == 0)

    def test_overlap_costs_weight(self, config):
        program = Program.from_sizes({"a": 32, "b": 32})
        graph = WeightedGraph()
        graph.add_edge(ChunkId("a", 0), ChunkId("b", 0), 7.0)
        costs = offset_costs_reference(
            MergeNode.single("a"),
            MergeNode.single("b"),
            graph,
            program,
            config,
        )
        # Only offset 0 overlaps the two single-line procedures.
        assert costs[0] == 7.0
        assert np.all(costs[1:] == 0)

    def test_multi_line_overlap_scales(self, config):
        program = Program.from_sizes({"a": 64, "b": 64})
        graph = WeightedGraph()
        graph.add_edge(ChunkId("a", 0), ChunkId("b", 0), 3.0)
        costs = offset_costs_reference(
            MergeNode.single("a"),
            MergeNode.single("b"),
            graph,
            program,
            config,
        )
        # Offset 0: both lines overlap -> 2 line-pairs x 3.0.
        assert costs[0] == 6.0
        # Offset 1: one line overlaps.
        assert costs[1] == 3.0
        assert costs[7] == 3.0  # wrap: b's line 7+1 = 0 overlaps a's 0

    def test_intra_node_conflicts_not_counted(self, config):
        program = Program.from_sizes({"a": 32, "b": 32, "c": 32})
        graph = WeightedGraph()
        # Heavy edge *within* n1 must not affect the offset costs.
        graph.add_edge(ChunkId("a", 0), ChunkId("b", 0), 1000.0)
        n1 = MergeNode([PlacedProcedure("a", 0), PlacedProcedure("b", 0)])
        n2 = MergeNode.single("c")
        costs = offset_costs_reference(n1, n2, graph, program, config)
        assert np.all(costs == 0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_fast_matches_reference(self, seed):
        config = CacheConfig(size=256, line_size=32)
        rng = random.Random(seed)
        sizes = {
            f"p{i}": rng.randint(16, 600) for i in range(6)
        }
        program = Program.from_sizes(sizes)
        graph = WeightedGraph()
        names = list(sizes)
        for _ in range(rng.randint(0, 30)):
            a, b = rng.sample(names, 2)
            graph.add_edge(
                ChunkId(a, rng.randrange(program[a].num_chunks())),
                ChunkId(b, rng.randrange(program[b].num_chunks())),
                rng.randint(1, 100),
            )
        split = rng.randint(1, 5)
        n1 = MergeNode(
            [
                PlacedProcedure(name, rng.randrange(config.num_lines))
                for name in names[:split]
            ]
        )
        n2 = MergeNode(
            [
                PlacedProcedure(name, rng.randrange(config.num_lines))
                for name in names[split:]
            ]
        )
        fast = offset_costs_fast(n1, n2, graph, program, config)
        reference = offset_costs_reference(n1, n2, graph, program, config)
        assert np.allclose(fast, reference, atol=1e-6)


class TestChunkWeights:
    """The per-placement index against the per-pair evaluator."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_placement_scope_is_bit_identical_to_pair_scope(self, data):
        """An index over a superset of procedures gives exactly the
        costs of one over the merged pair: the GBSC-SA tie-break
        compares those costs without tolerance."""
        config = data.draw(
            st.sampled_from(
                [
                    CacheConfig(size=128, line_size=32),
                    CacheConfig(size=256, line_size=32),
                    CacheConfig(size=512, line_size=32),
                ]
            ),
            label="config",
        )
        chunk_size = data.draw(st.sampled_from([32, 48, 64]), label="chunk")
        # Sizes reach past the largest cache, so procedures wrap.
        sizes = data.draw(
            st.lists(st.integers(1, 1200), min_size=3, max_size=8),
            label="sizes",
        )
        program = Program.from_sizes(
            {f"p{index}": size for index, size in enumerate(sizes)}
        )
        chunks = list(program.all_chunks(chunk_size))
        edges = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(chunks),
                    st.sampled_from(chunks),
                    st.floats(0.01, 1000.0),
                ),
                max_size=40,
            ),
            label="edges",
        )
        graph = WeightedGraph()
        for a, b, weight in edges:
            if a != b:
                graph.add_edge(a, b, weight)
        names = list(program.names)
        split = data.draw(st.integers(1, len(names) - 2), label="split")
        stop = data.draw(st.integers(split + 1, len(names)), label="stop")

        def node(members):
            return MergeNode(
                [
                    PlacedProcedure(
                        name,
                        data.draw(st.integers(0, config.num_lines - 1)),
                    )
                    for name in members
                ]
            )

        n1, n2 = node(names[:split]), node(names[split:stop])
        placement = ChunkWeights(graph, program, config, names, chunk_size)
        pair = offset_costs_fast(
            n1, n2, graph, program, config, chunk_size=chunk_size
        )
        assert np.array_equal(placement.offset_costs(n1, n2), pair)
        reference = offset_costs_reference(
            n1, n2, graph, program, config, chunk_size=chunk_size
        )
        assert np.allclose(pair, reference, rtol=1e-9, atol=1e-9)

    def test_chunks_without_edges_still_occupy_lines(self, config):
        program = Program.from_sizes({"a": 64, "b": 600, "c": 32})
        graph = WeightedGraph()
        graph.add_edge(ChunkId("a", 0), ChunkId("b", 2), 4.0)
        weights = ChunkWeights(graph, program, config, program.names, 64)
        assert weights.chunks[:3] == (
            ChunkId("a", 0), ChunkId("b", 0), ChunkId("b", 1)
        )
        lines, slots, chunks = weights.occupancy(MergeNode.single("b"))
        # 600 bytes span 19 lines, 10 chunks: every chunk has a slot.
        assert len(lines) == len(slots) and len(chunks) == 10
        assert sorted(set(slots.tolist())) == chunks.tolist()


def walk_reference(place_graph, chunks):
    """The matrix and row map the index used to build by walking every
    slot's neighbours through ``neighbors``/``weight``."""
    slot_of = {chunk: slot for slot, chunk in enumerate(chunks)}
    sources, targets, values = [], [], []
    for chunk, slot in slot_of.items():
        for neighbor in place_graph.neighbors(chunk):
            other = slot_of.get(neighbor)
            if other is not None:
                sources.append(slot)
                targets.append(other)
                values.append(place_graph.weight(chunk, neighbor))
    source = np.asarray(sources, dtype=np.int64)
    connected = np.unique(source)
    row_of = np.full(len(chunks), len(connected))
    row_of[connected] = np.arange(len(connected))
    matrix = np.zeros((len(connected) + 1, len(connected) + 1))
    matrix[row_of[source], row_of[np.asarray(targets, dtype=np.int64)]] = values
    return matrix, row_of


class TestChunkWeightsMatrix:
    """The array-filled matrix against the neighbour walk it replaced."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matrix_and_rows_equal_the_walk(self, data):
        sizes = data.draw(
            st.lists(st.integers(1, 400), min_size=2, max_size=6),
            label="sizes",
        )
        program = Program.from_sizes(
            {f"p{index}": size for index, size in enumerate(sizes)}
        )
        chunks = list(program.all_chunks(64))
        # Chunks of procedures outside the index, and of procedures
        # the program does not have, take part in edges too.
        outside = [ChunkId("zz", 0), ChunkId("zz", 1)]
        edges = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(chunks + outside),
                    st.sampled_from(chunks + outside),
                    st.floats(0.0, 1000.0),
                ),
                max_size=30,
            ),
            label="edges",
        )
        graph = WeightedGraph()
        for a, b, weight in edges:
            if a != b:
                graph.add_edge(a, b, weight)
        names = data.draw(
            st.lists(st.sampled_from(program.names), min_size=1, unique=True),
            label="names",
        )
        config = CacheConfig(size=256, line_size=32)
        for place_graph in (graph, freeze(graph)):
            weights = ChunkWeights(place_graph, program, config, names, 64)
            matrix, row_of = walk_reference(place_graph, weights.chunks)
            assert np.array_equal(weights._matrix, matrix)
            assert np.array_equal(weights._row_of, row_of)
            assert weights._row_of.dtype == row_of.dtype

    def test_graph_without_internal_edge(self, config):
        program = Program.from_sizes({"a": 64, "b": 64, "c": 64})
        graph = WeightedGraph()
        graph.add_edge(ChunkId("a", 0), ChunkId("c", 0), 3.0)
        weights = ChunkWeights(freeze(graph), program, config, ("a", "b"), 64)
        matrix, row_of = walk_reference(graph, weights.chunks)
        assert np.array_equal(weights._matrix, matrix)
        assert np.array_equal(weights._row_of, row_of)
        assert weights._matrix.shape == (1, 1)

    def test_built_trg_matrix_equals_the_walk(self, config):
        from repro.profiles.trg import build_trgs
        from repro.workloads.suite import by_name

        trace = by_name("m88ksim").scaled(0.02).trace("train")
        place = build_trgs(trace, CacheConfig(size=8192, line_size=32)).place
        names = sorted({chunk.procedure for chunk in place.nodes})[::2]
        weights = ChunkWeights(place, trace.program, config, names)
        matrix, row_of = walk_reference(place, weights.chunks)
        assert np.array_equal(weights._matrix, matrix)
        assert np.array_equal(weights._row_of, row_of)


class TestBestOffset:
    def test_first_minimum_wins(self):
        assert best_offset(np.asarray([3.0, 1.0, 1.0, 2.0])) == 1

    def test_all_equal_picks_zero(self):
        assert best_offset(np.zeros(8)) == 0

    def test_fft_noise_tolerated(self):
        costs = np.asarray([1e-12, 0.0, 5.0])
        assert best_offset(costs) == 0


def program_weights(graph, program, config, chunk_size=256):
    """The per-placement index: every procedure of *program* takes part."""
    return ChunkWeights(graph, program, config, program.names, chunk_size)


class TestMergeNodes:
    def test_ph_chain_equivalence(self, config):
        """Section 4.2, note 3: merging two small single-procedure
        nodes places the second at the first zero-cost line — right
        after the first procedure, exactly like a PH chain."""
        program = Program.from_sizes({"p": 96, "q": 64})
        graph = WeightedGraph()
        graph.add_edge(ChunkId("p", 0), ChunkId("q", 0), 5.0)
        merged = merge_nodes(
            MergeNode.single("p"),
            MergeNode.single("q"),
            program_weights(graph, program, config),
        )
        # p occupies lines 0-2; the first zero-cost offset for q is 3.
        assert merged.offset_of("p") == 0
        assert merged.offset_of("q") == 3

    def test_shared_procedure_rejected(self, config):
        program = Program.from_sizes({"p": 32})
        graph = WeightedGraph()
        with pytest.raises(PlacementError):
            merge_nodes(
                MergeNode.single("p"),
                MergeNode.single("p"),
                program_weights(graph, program, config),
            )

    def test_unknown_method_rejected(self, config):
        """The cost evaluator is not a caller's choice."""
        program = Program.from_sizes({"p": 32, "q": 32})
        with pytest.raises(TypeError):
            merge_nodes(
                MergeNode.single("p"),
                MergeNode.single("q"),
                program_weights(WeightedGraph(), program, config),
                method="reference",
            )

    def test_intra_node_alignment_preserved(self, config):
        """Merging never rearranges procedures within a node."""
        program = Program.from_sizes({"a": 32, "b": 32, "c": 32})
        graph = WeightedGraph()
        graph.add_edge(ChunkId("a", 0), ChunkId("c", 0), 2.0)
        n1 = MergeNode([PlacedProcedure("a", 1), PlacedProcedure("b", 4)])
        merged = merge_nodes(
            n1, MergeNode.single("c"), program_weights(graph, program, config)
        )
        assert merged.offset_of("a") == 1
        assert merged.offset_of("b") == 4

    def test_merge_avoids_conflict(self, config):
        """q must not be placed on top of p when their chunks have a
        TRG_place edge and a free line exists."""
        program = Program.from_sizes({"p": 128, "q": 128})
        graph = WeightedGraph()
        for i in range(1):
            graph.add_edge(ChunkId("p", 0), ChunkId("q", 0), 10.0)
        merged = merge_nodes(
            MergeNode.single("p"),
            MergeNode.single("q"),
            program_weights(graph, program, config),
        )
        p_lines = {(merged.offset_of("p") + i) % 8 for i in range(4)}
        q_lines = {(merged.offset_of("q") + i) % 8 for i in range(4)}
        assert not (p_lines & q_lines)

    def test_reference_method_agrees(self, config):
        """The offset merge_nodes picks is the first minimum of the
        Figure 4 quadruple loop."""
        program = Program.from_sizes({"p": 96, "q": 64})
        graph = WeightedGraph()
        graph.add_edge(ChunkId("p", 0), ChunkId("q", 0), 5.0)
        n1, n2 = MergeNode.single("p"), MergeNode.single("q")
        merged = merge_nodes(n1, n2, program_weights(graph, program, config))
        reference = offset_costs_reference(
            n1, n2, graph, program, config, chunk_size=256
        )
        assert merged.offset_of("q") == best_offset(reference)
        assert merged.offset_of("p") == 0

    def test_unknown_procedure_rejected(self, config):
        program = Program.from_sizes({"p": 32, "q": 32, "r": 32})
        weights = ChunkWeights(WeightedGraph(), program, config, ("p", "q"))
        with pytest.raises(PlacementError, match="'r'"):
            merge_nodes(MergeNode.single("p"), MergeNode.single("r"), weights)


class TestNonAlignedChunkSize:
    """chunk_size not a multiple of line_size (regression: lines used
    to be credited only to the chunk containing their first byte)."""

    def test_straddled_chunk_conflict_is_counted(self, config):
        # a: 96 bytes, chunks of 48 -> line 1 (bytes 32-63) straddles
        # the chunk 0/1 boundary.  An edge on chunk 1 must cost at
        # every line that holds chunk-1 bytes: lines 1 and 2.
        program = Program.from_sizes({"a": 96, "b": 32})
        graph = WeightedGraph()
        graph.add_edge(ChunkId("a", 1), ChunkId("b", 0), 5.0)
        costs = offset_costs_reference(
            MergeNode.single("a"),
            MergeNode.single("b"),
            graph,
            program,
            config,
            chunk_size=48,
        )
        assert costs[0] == 0.0  # line 0 is chunk 0 only
        assert costs[1] == 5.0  # straddled line: chunk 1 present
        assert costs[2] == 5.0  # line 2 is chunk 1 only

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_fast_matches_reference_non_aligned(self, seed):
        config = CacheConfig(size=256, line_size=32)
        chunk_size = 48
        rng = random.Random(seed)
        sizes = {f"p{i}": rng.randint(16, 400) for i in range(4)}
        program = Program.from_sizes(sizes)
        graph = WeightedGraph()
        names = list(sizes)
        for _ in range(rng.randint(0, 20)):
            a, b = rng.sample(names, 2)
            graph.add_edge(
                ChunkId(a, rng.randrange(program[a].num_chunks(chunk_size))),
                ChunkId(b, rng.randrange(program[b].num_chunks(chunk_size))),
                rng.randint(1, 100),
            )
        n1 = MergeNode(
            [PlacedProcedure(names[0], rng.randrange(config.num_lines))]
        )
        n2 = MergeNode(
            [
                PlacedProcedure(name, rng.randrange(config.num_lines))
                for name in names[1:]
            ]
        )
        fast = offset_costs_fast(
            n1, n2, graph, program, config, chunk_size=chunk_size
        )
        reference = offset_costs_reference(
            n1, n2, graph, program, config, chunk_size=chunk_size
        )
        assert np.allclose(fast, reference, atol=1e-6)
