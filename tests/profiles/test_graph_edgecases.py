"""Edge-case tests for the weighted-graph core."""

from repro.profiles.graph import WeightedGraph
from repro.program.procedure import ChunkId


class TestRemovalEdgeCases:
    def test_remove_missing_edge_is_noop(self):
        g = WeightedGraph()
        g.add_edge("a", "b", 1.0)
        g.remove_edge("a", "z")
        g.remove_edge("x", "y")
        assert g.weight("a", "b") == 1.0

    def test_remove_missing_node_is_noop(self):
        g = WeightedGraph()
        g.add_node("a")
        g.remove_node("ghost")
        assert "a" in g

    def test_edges_after_removal(self):
        g = WeightedGraph()
        g.add_edge("a", "b", 1.0)
        g.add_edge("b", "c", 2.0)
        g.remove_edge("a", "b")
        assert [(a, b) for a, b, _ in g.edges()] == [("b", "c")]


class TestMixedNodeTypes:
    def test_chunk_nodes_work_everywhere(self):
        g = WeightedGraph()
        g.add_edge(ChunkId("f", 0), ChunkId("g", 1), 4.0)
        g.add_edge(ChunkId("f", 0), ChunkId("f", 1), 2.0)
        heaviest = g.heaviest_edge()
        assert heaviest[2] == 4.0
        sub = g.subgraph([ChunkId("f", 0), ChunkId("g", 1)])
        assert sub.num_edges() == 1

    def test_repr_based_canonical_order_is_stable(self):
        g = WeightedGraph()
        g.add_edge(ChunkId("b", 0), ChunkId("a", 0), 1.0)
        ((x, y, _),) = list(g.edges())
        assert repr(x) <= repr(y)


class TestSubgraphEdgeCases:
    def test_empty_keep(self):
        g = WeightedGraph()
        g.add_edge("a", "b", 1.0)
        sub = g.subgraph([])
        assert len(sub) == 0
        assert sub.num_edges() == 0

    def test_subgraph_preserves_weights_exactly(self):
        g = WeightedGraph()
        g.add_edge("a", "b", 1.5)
        g.add_edge("a", "b", 2.5)
        sub = g.subgraph(["a", "b"])
        assert sub.weight("a", "b") == 4.0
