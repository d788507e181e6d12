"""Tests for the weighted-graph core."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import PlacementError
from repro.profiles.graph import WeightedGraph


@pytest.fixture
def graph() -> WeightedGraph:
    g = WeightedGraph()
    g.add_edge("a", "b", 3.0)
    g.add_edge("b", "c", 5.0)
    g.add_edge("a", "c", 1.0)
    return g


class TestMutation:
    def test_add_edge_accumulates(self):
        g = WeightedGraph()
        g.add_edge("a", "b", 2.0)
        g.add_edge("a", "b", 3.0)
        assert g.weight("a", "b") == 5.0

    def test_symmetric(self, graph):
        assert graph.weight("a", "b") == graph.weight("b", "a")

    def test_set_weight_overwrites(self, graph):
        graph.set_weight("a", "b", 10.0)
        assert graph.weight("a", "b") == 10.0

    def test_self_edge_rejected(self):
        g = WeightedGraph()
        with pytest.raises(PlacementError):
            g.add_edge("a", "a")

    def test_negative_weight_rejected(self):
        g = WeightedGraph()
        with pytest.raises(PlacementError):
            g.add_edge("a", "b", -1.0)

    def test_remove_edge(self, graph):
        graph.remove_edge("a", "b")
        assert not graph.has_edge("a", "b")
        assert "a" in graph  # nodes survive

    def test_remove_node(self, graph):
        graph.remove_node("b")
        assert "b" not in graph
        assert not graph.has_edge("a", "b")
        assert graph.has_edge("a", "c")

    def test_add_node_idempotent(self, graph):
        graph.add_node("a")
        assert len(graph) == 3


class TestQueries:
    def test_absent_edge_weight_zero(self, graph):
        assert graph.weight("a", "zz") == 0.0

    def test_neighbors(self, graph):
        assert set(graph.neighbors("a")) == {"b", "c"}

    def test_degree(self, graph):
        assert len(list(graph.neighbors("b"))) == 2
        assert list(graph.neighbors("missing")) == []

    def test_edges_enumerated_once(self, graph):
        edges = list(graph.edges())
        assert len(edges) == 3
        assert graph.num_edges() == 3

    def test_total_weight(self, graph):
        assert sum(w for _, _, w in graph.edges()) == 9.0

    def test_equality(self, graph):
        clone = graph.copy()
        assert clone == graph
        clone.add_edge("a", "b", 1.0)
        assert clone != graph


class TestCopyAndSubgraph:
    def test_copy_is_independent(self, graph):
        clone = graph.copy()
        clone.set_weight("a", "b", 99.0)
        assert graph.weight("a", "b") == 3.0

    def test_subgraph(self, graph):
        sub = graph.subgraph(["a", "b"])
        assert sub.has_edge("a", "b")
        assert not sub.has_edge("b", "c")
        assert "c" not in sub

    def test_subgraph_ignores_missing(self, graph):
        sub = graph.subgraph(["a", "ghost"])
        assert "a" in sub
        assert "ghost" not in sub


class TestMergeNodesInto:
    def test_parallel_edges_sum(self, graph):
        # Merge b into a: edge a-c (1) and b-c (5) combine to 6.
        graph.merge_nodes_into("a", "b")
        assert graph.weight("a", "c") == 6.0
        assert "b" not in graph

    def test_edge_between_merged_disappears(self, graph):
        graph.merge_nodes_into("a", "b")
        assert not graph.has_edge("a", "b")

    def test_merge_missing_node_rejected(self, graph):
        with pytest.raises(PlacementError):
            graph.merge_nodes_into("a", "ghost")

    def test_merge_self_rejected(self, graph):
        with pytest.raises(PlacementError):
            graph.merge_nodes_into("a", "a")

    def test_repeated_merges_reduce_to_one_node(self, graph):
        graph.merge_nodes_into("a", "b")
        graph.merge_nodes_into("a", "c")
        assert len(graph) == 1
        assert graph.num_edges() == 0


@given(
    edges=st.lists(
        st.tuples(
            st.integers(0, 10), st.integers(0, 10), st.floats(0.1, 100)
        ),
        max_size=40,
    )
)
def test_total_weight_invariant_under_merge(edges):
    """Merging two nodes preserves total weight minus the merged edge."""
    g = WeightedGraph()
    for a, b, w in edges:
        if a != b:
            g.add_edge(a, b, w)
    if not g.num_edges():
        return
    a, b, w = max(g.edges(), key=lambda edge: edge[2])
    before = _total_weight(g)
    g.merge_nodes_into(a, b)
    assert _total_weight(g) == pytest.approx(before - w)


def _total_weight(graph: WeightedGraph) -> float:
    return sum(w for _, _, w in graph.edges())


class TestCanonicalOrdering:
    def test_edges_canonicalised_naturally(self):
        """Edge endpoints come back in natural order: p2 before p10,
        not the repr-lexicographic p10 < p2."""
        g = WeightedGraph()
        g.add_edge("p10", "p2", 1.0)
        [(a, b, _)] = list(g.edges())
        assert (a, b) == ("p2", "p10")

    def test_chunks_canonicalised_by_procedure_then_index(self):
        from repro.program.procedure import ChunkId

        g = WeightedGraph()
        g.add_edge(ChunkId("p10", 0), ChunkId("p2", 3), 1.0)
        [(a, b, _)] = list(g.edges())
        assert (a, b) == (ChunkId("p2", 3), ChunkId("p10", 0))

    def test_structural_key_shared_with_perturb(self):
        """graph and perturb canonicalise with the same helper."""
        from repro.profiles import perturb
        from repro.profiles.graph import structural_node_key

        assert perturb.structural_node_key is structural_node_key

    def test_equal_structural_keys_fall_back_to_repr(self):
        """"p01" and "p1" share a structural key; the repr tiebreak
        keeps the canonical order total and deterministic."""
        g = WeightedGraph()
        g.add_edge("p1", "p01", 1.0)
        [(a, b, _)] = list(g.edges())
        assert (a, b) == ("p01", "p1")


class TestSetEdges:
    def test_bulk_set_matches_add_edge(self):
        bulk = WeightedGraph()
        scalar = WeightedGraph()
        for node in ("a", "b", "c"):
            bulk.add_node(node)
            scalar.add_node(node)
        edges = [("a", "b", 2.0), ("b", "c", 5.0)]
        bulk.set_edges(edges)
        for a, b, weight in edges:
            scalar.add_edge(a, b, weight)
        assert bulk == scalar
        assert bulk.weight("a", "b") == 2.0
        assert bulk.weight("b", "a") == 2.0

    def test_rejects_self_edge(self):
        graph = WeightedGraph()
        graph.add_node("a")
        with pytest.raises(PlacementError):
            graph.set_edges([("a", "a", 1.0)])

    def test_rejects_negative_weight(self):
        graph = WeightedGraph()
        graph.add_node("a")
        graph.add_node("b")
        with pytest.raises(PlacementError):
            graph.set_edges([("a", "b", -1.0)])

    def test_rejects_unknown_endpoint(self):
        graph = WeightedGraph()
        graph.add_node("a")
        with pytest.raises(PlacementError):
            graph.set_edges([("missing", "a", 1.0)])
