"""Stateful property test of the GBSC merge (Figure 4, Section 4.3).

A hypothesis state machine draws a small program, a cache of at most
16 lines and a random ``TRG_place`` graph, then merges random pairs of
working nodes the way the greedy loop does.  After every step it checks
the paper's invariants:

* every procedure sits in exactly one node;
* every offset lies in ``[0, C)``;
* the chosen offset is the first minimum of the Figure 4 reference
  cost vector, within the shared tie tolerance;
* a Section 6 merge on the 2-way cache of the same size picks a set
  offset tied on the pair-database reference cost, with the least
  direct-mapped reference cost of those.  It is not always the first
  such offset: FFT round-off still decides exact direct-mapped ties
  (``tests/core/test_setassoc.py::TestMergeSA::
  test_round_off_decides_exact_direct_mapped_ties``);
* the per-placement chunk index maps every node onto the cache lines
  :func:`line_occupancy` gives, line by line;
* the linearized layout has no overlap, conserves sizes, realises
  every offset and leaves gaps below one cache size.
"""

from dataclasses import replace

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.cache.config import CacheConfig
from repro.core.linearize import linearize
from repro.core.merge import (
    ChunkWeights,
    MergeNode,
    line_occupancy,
    merge_nodes,
    offset_costs_reference,
    tied_offsets,
)
from repro.core.setassoc import (
    PairIndex,
    merge_nodes_sa,
    sa_offset_costs_reference,
)
from repro.profiles.graph import WeightedGraph
from repro.profiles.pairdb import PairDatabase
from repro.program.procedure import ChunkId
from repro.program.program import Program

CONFIGS = [
    CacheConfig(size=128, line_size=32),  # 4 lines
    CacheConfig(size=256, line_size=32),  # 8 lines
    CacheConfig(size=512, line_size=32),  # 16 lines
]


class GBSCMergeMachine(RuleBasedStateMachine):
    """Random merge sequences over one random program and graph."""

    @initialize(data=st.data())
    def build(self, data):
        sizes = data.draw(
            # Short procedures give the Section 6 cost offsets to tell
            # apart; long ones wrap the cache.
            st.lists(
                st.one_of(st.integers(1, 96), st.integers(97, 600)),
                min_size=2,
                max_size=7,
            ),
            label="sizes",
        )
        self.program = Program.from_sizes(
            {f"p{index}": size for index, size in enumerate(sizes)}
        )
        self.config = data.draw(st.sampled_from(CONFIGS), label="config")
        self.chunk_size = data.draw(
            st.sampled_from([32, 48, 64]), label="chunk_size"
        )
        chunks = [
            ChunkId(name, index)
            for name in self.program.names
            for index in range(self.program[name].num_chunks(self.chunk_size))
        ]
        edges = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(chunks),
                    st.sampled_from(chunks),
                    st.integers(1, 50),
                ),
                max_size=24,
            ),
            label="edges",
        )
        self.graph = WeightedGraph()
        for a, b, weight in edges:
            if a != b:
                self.graph.add_edge(a, b, float(weight))
        self.weights = ChunkWeights(
            self.graph,
            self.program,
            self.config,
            self.program.names,
            self.chunk_size,
        )
        names = list(self.program.names)
        self.pair_db = PairDatabase()
        for p in names:
            recorded = data.draw(
                st.lists(
                    st.tuples(
                        st.sampled_from(names),
                        st.sampled_from(names),
                        st.integers(1, 50),
                    ),
                    max_size=6,
                ),
                label=f"pairs of {p}",
            )
            for r, s, count in recorded:
                for _ in range(count):
                    self.pair_db.record(p, [r, s])
        # Same size and lines, so the same offsets and chunk index.
        self.sa_config = replace(self.config, associativity=2)
        self.pairs = PairIndex(
            self.pair_db, self.program, self.sa_config, names
        )
        self.nodes = [MergeNode.single(name) for name in self.program.names]
        self.last_merge = None
        self.last_sa_merge = None

    def _draw_pair(self, data):
        first, second = data.draw(
            st.lists(
                st.integers(0, len(self.nodes) - 1),
                min_size=2,
                max_size=2,
                unique=True,
            ),
            label="pair",
        )
        return first, second

    def _replace(self, first, second, merged):
        self.nodes = [
            node
            for index, node in enumerate(self.nodes)
            if index not in (first, second)
        ] + [merged]

    def _shift(self, n1, n2, merged):
        """The one shift *merged* applied to *n2*, *n1* left in place."""
        num_lines = self.config.num_lines
        for placement in n1.placements:
            assert merged.offset_of(placement.name) == placement.offset
        shifts = {
            (merged.offset_of(p.name) - p.offset) % num_lines
            for p in n2.placements
        }
        assert len(shifts) == 1, "n2 must move as a whole"
        return shifts.pop()

    @precondition(lambda self: len(self.nodes) > 1)
    @rule(data=st.data())
    def merge(self, data):
        first, second = self._draw_pair(data)
        n1, n2 = self.nodes[first], self.nodes[second]
        merged = merge_nodes(n1, n2, self.weights)
        costs = offset_costs_reference(
            n1, n2, self.graph, self.program, self.config, self.chunk_size
        )
        self.last_merge = (costs, self._shift(n1, n2, merged))
        self.last_sa_merge = None
        self._replace(first, second, merged)

    @precondition(lambda self: len(self.nodes) > 1)
    @rule(data=st.data())
    def merge_sa(self, data):
        """A Section 6 merge, tie-broken by the direct-mapped cost."""
        first, second = self._draw_pair(data)
        n1, n2 = self.nodes[first], self.nodes[second]
        merged = merge_nodes_sa(n1, n2, self.pairs, self.weights)
        sa_costs = sa_offset_costs_reference(
            n1, n2, self.pair_db, self.program, self.sa_config
        )
        dm_costs = offset_costs_reference(
            n1, n2, self.graph, self.program, self.config, self.chunk_size
        )
        self.last_sa_merge = (sa_costs, dm_costs, self._shift(n1, n2, merged))
        self.last_merge = None
        self._replace(first, second, merged)

    @precondition(lambda self: len(self.nodes) == 1)
    @rule()
    def restart(self):
        """Everything merged: start another sequence on the same graph."""
        self.nodes = [MergeNode.single(name) for name in self.program.names]
        self.last_merge = None
        self.last_sa_merge = None

    @invariant()
    def every_procedure_placed_once(self):
        names = [name for node in self.nodes for name in node.names]
        assert sorted(names) == sorted(self.program.names)

    @invariant()
    def offsets_within_the_cache(self):
        for node in self.nodes:
            for placement in node.placements:
                assert 0 <= placement.offset < self.config.num_lines

    @invariant()
    def chosen_offset_is_first_reference_minimum(self):
        if self.last_merge is not None:
            costs, chosen = self.last_merge
            assert chosen == tied_offsets(costs)[0]
            # Integer weights make the reference costs exact.
            assert costs[chosen] == costs.min()

    @invariant()
    def sa_offset_is_a_tied_direct_mapped_minimum(self):
        if self.last_sa_merge is not None:
            sa_costs, dm_costs, chosen = self.last_sa_merge
            num_sets = self.sa_config.num_sets
            assert 0 <= chosen < num_sets
            tied = tied_offsets(sa_costs)
            assert chosen in tied
            # Integer weights make both reference cost vectors exact.
            folded = dm_costs.reshape(-1, num_sets).sum(axis=0)
            assert folded[chosen] == folded[tied].min()

    @invariant()
    def index_occupancy_matches_line_occupancy(self):
        for node in self.nodes:
            lines, slots, _ = self.weights.occupancy(node)
            indexed = [[] for _ in range(self.config.num_lines)]
            for line, slot in zip(lines, slots):
                indexed[line].append(self.weights.chunks[slot])
            expected = line_occupancy(
                node, self.program, self.config, self.chunk_size
            )
            assert [sorted(line) for line in indexed] == [
                sorted(line) for line in expected
            ]

    @invariant()
    def linearized_layout_is_sound(self):
        layout = linearize(self.nodes, self.program, self.config).layout
        spans = sorted(
            (layout.address_of(name), layout.end_address_of(name))
            for name in self.program.names
        )
        assert sum(end - start for start, end in spans) == (
            self.program.total_size
        )
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end <= start, "procedures overlap"
            assert start - end < self.config.size
        line_size, num_lines = self.config.line_size, self.config.num_lines
        for node in self.nodes:
            for placement in node.placements:
                address = layout.address_of(placement.name)
                assert (address // line_size) % num_lines == placement.offset


TestGBSCMerge = GBSCMergeMachine.TestCase
TestGBSCMerge.settings = settings(
    max_examples=40, stateful_step_count=8, deadline=None
)
