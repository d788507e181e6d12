"""``coalesce``, the greedy loop of PH and GBSC, against the loop it
replaced.

The reference re-pushes every neighbour edge of the merged node after
each merge, and folds through the edge API; ``coalesce`` pushes an
edge only when its key beats every key already pushed for it.  Both
must yield the same ``(u, v)`` sequence and leave the same working
graph, row order included.  The histories stress what decides the
order: tied integer weights, names whose ``repr`` order is not their
natural order (``p9``/``p10``), zero-weight edges, and float
absorption (``1e16 + 1 == 1e16``), where a merge leaves an edge's
weight unchanged but may still improve its key by orientation.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.profiles.graph import WeightedGraph, coalesce

#: ``repr`` order (``'p10' < 'p9'``) differs from natural order here.
NAMES = ("p1", "p2", "p9", "p10", "p11", "p20", "main", "a", "b")

WEIGHTS = {
    "ties": st.integers(min_value=0, max_value=3).map(float),
    "zeros": st.sampled_from((0.0, 0.0, 1.0)),
    "absorption": st.sampled_from((1e16, 1.0, 2.0, 0.0)),
    "spread": st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
}


def reference_fold(graph: WeightedGraph, target, source) -> None:
    """The former ``merge_nodes_into``, through the edge API."""
    graph.remove_edge(target, source)
    for neighbor, weight in list(graph._adj[source].items()):
        graph.add_edge(target, neighbor, weight)
    graph.remove_node(source)


def rows(graph: WeightedGraph) -> list:
    """Every row with its order."""
    return [(node, list(row.items())) for node, row in graph._adj.items()]


def reference_coalesce(working: WeightedGraph) -> tuple[list, int]:
    """The former loop: after each merge, push every neighbour edge of
    the merged node.  Returns the merges and the pushes."""
    heap: list = []
    for a, b, weight in working.edges():
        heapq.heappush(heap, (-weight, repr(a), repr(b), a, b))
    pushes = len(heap)
    merges = []
    while heap:
        neg_weight, _, _, u, v = heapq.heappop(heap)
        if u not in working or v not in working:
            continue
        if working.weight(u, v) != -neg_weight:
            continue
        merges.append((u, v))
        reference_fold(working, u, v)
        for neighbor in working.neighbors(u):
            weight = working.weight(u, neighbor)
            heapq.heappush(
                heap, (-weight, repr(u), repr(neighbor), u, neighbor)
            )
            pushes += 1
    return merges, pushes


@contextmanager
def counters():
    """Observe the block; yields its metrics registry."""
    previous = obs.current()
    state = obs.enable()
    try:
        yield state.registry
    finally:
        obs.restore(previous)


@st.composite
def graphs(draw):
    weight = WEIGHTS[draw(st.sampled_from(sorted(WEIGHTS)))]
    nodes = draw(
        st.lists(st.sampled_from(NAMES), min_size=2, max_size=9, unique=True)
    )
    graph = WeightedGraph()
    for node in nodes:
        graph.add_node(node)
    edges = draw(
        st.lists(
            st.tuples(
                st.sampled_from(nodes), st.sampled_from(nodes), weight
            ),
            max_size=30,
        )
    )
    for a, b, w in edges:
        if a != b:
            graph.add_edge(a, b, w)
    return graph


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_same_merges_as_the_repush_loop(graph):
    expected_graph = graph.copy()
    expected, reference_pushes = reference_coalesce(expected_graph)
    with counters() as registry:
        merges = list(coalesce(graph))
    assert merges == expected
    assert rows(graph) == rows(expected_graph)
    pushes = registry.counter("greedy.heap_pushes").value
    stale = registry.counter("greedy.stale_entries").value
    assert pushes <= reference_pushes
    # Every push pops once: as a merge or as a stale entry.
    assert pushes == len(merges) + stale


def test_caller_step_runs_before_the_fold():
    """A yielded pair is still two nodes until the caller asks for the
    next one."""
    graph = WeightedGraph()
    graph.add_edge("a", "b", 3.0)
    graph.add_edge("b", "c", 1.0)
    seen = []
    for u, v in coalesce(graph):
        seen.append((u, v, u in graph and v in graph))
    assert seen == [("a", "b", True), ("a", "c", True)]
    assert graph.nodes == ["a"]


def test_merged_edge_weight_is_pushed_once():
    """After a-b merge, a-c weighs 4 + 5: one push for it, and the
    lighter a-c and b-c entries pop stale."""
    graph = WeightedGraph()
    graph.add_edge("a", "b", 10.0)
    graph.add_edge("a", "c", 4.0)
    graph.add_edge("b", "c", 5.0)
    with counters() as registry:
        assert list(coalesce(graph)) == [("a", "b"), ("a", "c")]
    assert registry.counter("greedy.heap_pushes").value == 4
    assert registry.counter("greedy.stale_entries").value == 2
