"""``WeightedGraph.edges``, ``FrozenGraph`` and ``perturbed`` against
the walks they replaced, over random mutation histories.

The references are the former implementations: an edge walk that
deduplicates through a set of canonical pairs, and a perturbation that
recomputes structural keys per edge and writes with ``set_weight``.
Equality covers order, not just content: the perturbation draws one
Gaussian per edge in sorted order, and adjacency row order feeds every
later walk.  Every history's graph is also frozen: the frozen form
must read back in the same order through every method, and perturb
to the same graph.
"""

from __future__ import annotations

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.profiles.graph import (
    WeightedGraph,
    _canon_key,
    freeze,
    structural_node_key,
)
from repro.profiles.perturb import perturbed
from repro.program.procedure import ChunkId

#: Names that share structural keys (``p01``/``p1``), cross a power of
#: ten (``p2``/``p10``), and chunks of the same procedures.
NODES = (
    "p1", "p01", "p2", "p10", "main",
    ChunkId("p1", 0), ChunkId("p1", 1), ChunkId("p01", 0),
    ChunkId("p10", 2), ChunkId("p2", 0),
)


def _canon(a, b):
    return (a, b) if _canon_key(a) <= _canon_key(b) else (b, a)


def seen_set_edges(graph: WeightedGraph):
    """Reference: every edge once, deduplicated by canonical pair."""
    seen = set()
    for a, neighbors in graph._adj.items():
        for b, weight in neighbors.items():
            key = _canon(a, b)
            if key in seen:
                continue
            seen.add(key)
            yield key[0], key[1], weight


def reference_perturbed(graph: WeightedGraph, scale: float, seed: int):
    """Reference: per-edge structural keys, one ``set_weight`` each."""
    rng = random.Random(seed)
    out = WeightedGraph()
    for node in sorted(graph.nodes, key=structural_node_key):
        out.add_node(node)
    edges = sorted(
        seen_set_edges(graph),
        key=lambda edge: (
            structural_node_key(edge[0]),
            structural_node_key(edge[1]),
        ),
    )
    for a, b, weight in edges:
        out.set_weight(a, b, weight * math.exp(scale * rng.gauss(0.0, 1.0)))
    return out


nodes = st.sampled_from(NODES)
weights = st.floats(0.0, 1e6, allow_nan=False)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), nodes, nodes, weights),
        st.tuples(st.just("set"), nodes, nodes, weights),
        st.tuples(st.just("remove"), nodes),
        st.tuples(st.just("merge"), nodes, nodes),
        st.tuples(st.just("node"), nodes),
    ),
    max_size=60,
)


def replay(history) -> WeightedGraph:
    graph = WeightedGraph()
    for op, *args in history:
        if op == "add" and args[0] != args[1]:
            graph.add_edge(*args)
        elif op == "set" and args[0] != args[1]:
            graph.set_weight(*args)
        elif op == "remove":
            graph.remove_node(args[0])
        elif op == "merge":
            target, source = args
            if target != source and target in graph and source in graph:
                graph.merge_nodes_into(target, source)
        elif op == "node":
            graph.add_node(args[0])
    return graph


def rows(graph) -> list:
    """Node order and every adjacency row, in order."""
    return [(node, list(graph._adj[node].items())) for node in graph._adj]


def reads(graph) -> list:
    """Node order and every row through the public read API."""
    return [
        (
            node,
            [
                (other, graph.weight(node, other), graph.has_edge(other, node))
                for other in graph.neighbors(node)
            ],
        )
        for node in graph.nodes
    ]


class TestEdgesReference:
    @given(operations)
    @settings(max_examples=300)
    def test_same_sequence_as_seen_set_walk(self, history):
        graph = replay(history)
        assert list(graph.edges()) == list(seen_set_edges(graph))

    def test_shared_structural_key_keeps_repr_order(self):
        graph = WeightedGraph()
        graph.add_edge("p1", "p01", 1.0)
        graph.add_edge(ChunkId("p1", 0), ChunkId("p01", 0), 2.0)
        assert list(graph.edges()) == list(seen_set_edges(graph))


class TestPerturbedReference:
    @given(
        history=operations,
        scale=st.sampled_from([0.0, 0.1]),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=200)
    def test_same_graph_and_row_order(self, history, scale, seed):
        graph = replay(history)
        assert rows(perturbed(graph, scale, seed)) == rows(
            reference_perturbed(graph, scale, seed)
        )


class TestFrozenReference:
    @given(operations)
    @settings(max_examples=300)
    def test_frozen_form_reads_in_the_same_order(self, history):
        graph = replay(history)
        frozen = freeze(graph)
        assert reads(frozen) == reads(graph)
        assert rows(frozen) == rows(graph)
        assert list(frozen.edges()) == list(graph.edges())
        assert frozen.num_edges() == graph.num_edges()
        assert len(frozen) == len(graph)
        assert all(node in frozen for node in graph.nodes)
        assert frozen == graph and graph == frozen
        assert rows(frozen.copy()) == rows(graph.copy())
        keep = graph.nodes[::2]
        assert rows(frozen.subgraph(keep)) == rows(graph.subgraph(keep))

    @given(
        history=operations,
        scale=st.sampled_from([0.0, 0.1]),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=200)
    def test_frozen_and_dict_forms_perturb_alike(self, history, scale, seed):
        graph = replay(history)
        reference = rows(reference_perturbed(graph, scale, seed))
        assert rows(perturbed(freeze(graph), scale, seed)) == reference
        assert rows(perturbed(graph, scale, seed)) == reference

    @given(history=operations, seed=st.integers(0, 2**32))
    @settings(max_examples=100)
    def test_perturbed_graph_reads_like_its_rows(self, history, seed):
        """A perturbed graph shares its index arrays with the canonical
        view; reading it, or perturbing it again, matches a dict copy."""
        out = perturbed(freeze(replay(history)), 0.1, seed)
        copy = out.copy()
        assert reads(out) == reads(copy)
        assert list(out.edges()) == list(copy.edges())
        assert rows(perturbed(out, 0.1, seed)) == rows(
            reference_perturbed(copy, 0.1, seed)
        )

    def test_canonical_view_orders_tied_keys_like_the_reference(self):
        graph = WeightedGraph()
        graph.add_edge("p1", "p10", 1.0)
        graph.add_edge("p01", "p2", 2.0)
        graph.add_edge("p01", "p10", 3.0)
        graph.add_edge("p2", "p1", 4.0)
        view = freeze(graph).canonical_edges()
        nodes = view.table.nodes
        expected = sorted(
            seen_set_edges(graph),
            key=lambda edge: (
                structural_node_key(edge[0]),
                structural_node_key(edge[1]),
            ),
        )
        assert [
            (nodes[a], nodes[b], weight)
            for a, b, weight in zip(
                view.a.tolist(), view.b.tolist(), view.weights.tolist()
            )
        ] == expected
        assert list(nodes) == sorted(graph.nodes, key=structural_node_key)
