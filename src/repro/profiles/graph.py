"""Undirected weighted graphs over arbitrary hashable code-block ids.

Both profile summaries in the paper — the weighted call graph (WCG,
Section 2) and the temporal relationship graph (TRG, Section 3) — are
undirected graphs with non-negative edge weights whose nodes are code
blocks (procedure names or :class:`~repro.program.procedure.ChunkId`
chunks).  This module provides that shared structure, with the
canonical edge order the greedy placement algorithms break ties on
(the paper notes ties are "decided arbitrarily"; a canonical node-pair
key makes every run reproducible).
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Hashable, Iterable, Iterator

from repro.errors import PlacementError
from repro.program.procedure import ChunkId

Node = Hashable

_DIGITS = re.compile(r"(\d+)")


@lru_cache(maxsize=65536)
def _natural(text: str) -> tuple:
    """Natural-sort decomposition: ``"p10"`` → ``("p", 10, "")``.

    ``re.split`` with a capturing group alternates literal and digit
    segments, so any two decompositions compare str-to-str and
    int-to-int position by position — a total order with no
    cross-type comparisons.
    """
    return tuple(
        int(part) if index % 2 else part
        for index, part in enumerate(_DIGITS.split(text))
    )


def structural_node_key(node: object) -> tuple:
    """A stable, structure-aware sort key for profile-graph nodes.

    Graph nodes are procedure names (WCG, selection TRG) or
    :class:`~repro.program.procedure.ChunkId` (placement TRG).  The
    key orders names *naturally* — ``p2`` before ``p10`` — and chunks
    by (procedure, index), so the canonical visit order does not jump
    when a numbering crosses a power of ten the way plain ``repr``
    lexicographic ordering does.
    """
    if isinstance(node, ChunkId):
        return ("chunk", _natural(node.procedure), node.index)
    if isinstance(node, str):
        return ("name", _natural(node), -1)
    return ("other", (repr(node),), -1)


@lru_cache(maxsize=65536)
def _canon_key(node: Node) -> tuple:
    """Total order for canonicalisation: structural key, then ``repr``.

    The ``repr`` tiebreak keeps the order total when distinct nodes
    share a structural key (``"p01"`` and ``"p1"`` both decompose to
    ``("p", 1, "")``).
    """
    return (structural_node_key(node), repr(node))


class WeightedGraph:
    """A mutable undirected graph with float edge weights.

    Self-edges are rejected: a code block never conflicts with itself.
    """

    def __init__(self) -> None:
        """Create an empty graph."""
        self._adj: dict[Node, dict[Node, float]] = {}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add_node(self, node: Node) -> None:
        """Ensure *node* exists (idempotent)."""
        self._adj.setdefault(node, {})

    def add_edge(self, a: Node, b: Node, weight: float = 1.0) -> None:
        """Add *weight* to the edge ``{a, b}`` (creating it if absent)."""
        if a == b:
            raise PlacementError(f"self-edge on {a!r} is not allowed")
        if weight < 0:
            raise PlacementError(f"edge weight must be >= 0, got {weight}")
        self.add_node(a)
        self.add_node(b)
        self._adj[a][b] = self._adj[a].get(b, 0.0) + weight
        self._adj[b][a] = self._adj[b].get(a, 0.0) + weight

    def set_weight(self, a: Node, b: Node, weight: float) -> None:
        """Set the edge ``{a, b}`` to exactly *weight*."""
        if a == b:
            raise PlacementError(f"self-edge on {a!r} is not allowed")
        if weight < 0:
            raise PlacementError(f"edge weight must be >= 0, got {weight}")
        self.add_node(a)
        self.add_node(b)
        self._adj[a][b] = weight
        self._adj[b][a] = weight

    def set_edges(self, edges: Iterable[tuple[Node, Node, float]]) -> None:
        """Set each listed edge ``{a, b}`` to exactly *weight*, in bulk.

        The batch counterpart of :meth:`set_weight` for folds that
        already produced a deduplicated edge list (the vectorized TRG
        builder): every unordered pair may appear at most once and both
        endpoints must already be nodes, which lets the loop write the
        adjacency rows directly instead of paying per-edge method
        dispatch 50k+ times.
        """
        adj = self._adj
        try:
            for a, b, weight in edges:
                if a == b:
                    raise PlacementError(
                        f"self-edge on {a!r} is not allowed"
                    )
                if weight < 0:
                    raise PlacementError(
                        f"edge weight must be >= 0, got {weight}"
                    )
                adj[a][b] = weight
                adj[b][a] = weight
        except KeyError as error:
            raise PlacementError(
                f"set_edges endpoint {error.args[0]!r} is not a node"
            ) from None

    def remove_edge(self, a: Node, b: Node) -> None:
        """Remove the edge ``{a, b}`` if present."""
        self._adj.get(a, {}).pop(b, None)
        self._adj.get(b, {}).pop(a, None)

    def remove_node(self, node: Node) -> None:
        """Remove *node* and all incident edges."""
        for neighbor in list(self._adj.get(node, {})):
            del self._adj[neighbor][node]
        self._adj.pop(node, None)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __contains__(self, node: object) -> bool:
        """True when *node* is in the graph."""
        return node in self._adj

    def __len__(self) -> int:
        """Number of nodes."""
        return len(self._adj)

    @property
    def nodes(self) -> list[Node]:
        """All nodes, in insertion order."""
        return list(self._adj)

    def weight(self, a: Node, b: Node) -> float:
        """Weight of edge ``{a, b}``; 0 when absent."""
        return self._adj.get(a, {}).get(b, 0.0)

    def has_edge(self, a: Node, b: Node) -> bool:
        """True when the edge ``{a, b}`` exists."""
        return b in self._adj.get(a, {})

    def neighbors(self, node: Node) -> Iterator[Node]:
        """Neighbors of *node* (empty when absent)."""
        yield from self._adj.get(node, {})

    def edges(self) -> Iterator[tuple[Node, Node, float]]:
        """All edges once each, as ``(a, b, weight)``.

        An edge comes from the row of whichever endpoint was inserted
        first, and its endpoints in canonical order (see
        :func:`structural_node_key`, then ``repr``).
        """
        adj = self._adj
        rank = {
            node: index
            for index, node in enumerate(sorted(adj, key=_canon_key))
        }
        done: set[Node] = set()
        for a, neighbors in adj.items():
            rank_a = rank[a]
            for b, weight in neighbors.items():
                if b in done:
                    continue
                if rank_a < rank[b]:
                    yield a, b, weight
                else:
                    yield b, a, weight
            done.add(a)

    def num_edges(self) -> int:
        """Number of (undirected) edges."""
        return sum(len(n) for n in self._adj.values()) // 2

    def copy(self) -> "WeightedGraph":
        """An independent deep copy (adjacency dicts are not shared)."""
        clone = WeightedGraph()
        clone._adj = {
            node: dict(neighbors) for node, neighbors in self._adj.items()
        }
        return clone

    def subgraph(self, keep: Iterable[Node]) -> "WeightedGraph":
        """The induced subgraph on *keep* (missing nodes are ignored)."""
        keep_set = set(keep)
        sub = WeightedGraph()
        for node in self._adj:
            if node in keep_set:
                sub.add_node(node)
        for a, b, weight in self.edges():
            if a in keep_set and b in keep_set:
                sub.set_weight(a, b, weight)
        return sub

    def merge_nodes_into(self, target: Node, source: Node) -> None:
        """Fold *source* into *target*, summing parallel edge weights.

        This is the node-coalescing step of the PH working graph
        (Section 2): edges from either endpoint to a common neighbor
        ``r`` combine into a single edge of summed weight, and any edge
        between the two merged nodes disappears.
        """
        if target == source:
            raise PlacementError("cannot merge a node with itself")
        if target not in self._adj or source not in self._adj:
            raise PlacementError("both nodes must be present to merge")
        self.remove_edge(target, source)
        for neighbor, weight in list(self._adj[source].items()):
            self.add_edge(target, neighbor, weight)
        self.remove_node(source)

    def __eq__(self, other: object) -> bool:
        """Structural equality: same node set and same edge weights."""
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        if set(self._adj) != set(other._adj):
            return False
        return dict(self._edge_dict()) == dict(other._edge_dict())

    def _edge_dict(self) -> dict[tuple[Node, Node], float]:
        return {(a, b): w for a, b, w in self.edges()}

    def __repr__(self) -> str:
        """Size summary, e.g. ``WeightedGraph(4 nodes, 3 edges)``."""
        return f"WeightedGraph({len(self)} nodes, {self.num_edges()} edges)"
