"""Undirected weighted graphs over arbitrary hashable code-block ids.

Both profile summaries in the paper — the weighted call graph (WCG,
Section 2) and the temporal relationship graph (TRG, Section 3) — are
undirected graphs with non-negative edge weights whose nodes are code
blocks (procedure names or :class:`~repro.program.procedure.ChunkId`
chunks).  This module provides that shared structure, with the
canonical edge order the greedy placement algorithms break ties on
(the paper notes ties are "decided arbitrarily"; a canonical node-pair
key makes every run reproducible).

Two classes share one read API, :class:`ProfileGraph`:

* :class:`WeightedGraph` is a mutable dict of dicts, for graphs built
  edge by edge (the WCG, the scalar TRG builder) and for the working
  graphs that PH and GBSC coalesce;
* :class:`FrozenGraph` is an immutable node table plus CSR rows, for
  the graphs that the vectorized TRG builder, the store codec and
  :func:`~repro.profiles.perturb.perturbed` produce.  Perturbation, the
  GBSC chunk index and the codec read its arrays; a reader of the dict
  API gets rows built once, on first use, in the same order.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from typing import Hashable, Iterable, Iterator, Sequence

import numpy as np

from repro import obs
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


class ProfileGraph:
    """The read API of an undirected graph with float edge weights.

    A subclass provides ``_adj``, the rows ``{node: {neighbour:
    weight}}`` in insertion order; every read here follows that order,
    and each edge sits in both of its endpoints' rows.
    """

    _adj: dict[Node, dict[Node, float]]

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

    def canonical_edges(self) -> "CanonicalEdges":
        """The edges in the order :func:`~repro.profiles.perturb
        .perturbed` draws for them (see :class:`CanonicalEdges`)."""
        return freeze(self).canonical_edges()

    def copy(self) -> "WeightedGraph":
        """An independent mutable copy (adjacency dicts are not shared)."""
        clone = WeightedGraph()
        clone._adj = {
            node: dict(neighbors) for node, neighbors in self._adj.items()
        }
        return clone

    def subgraph(self, keep: Iterable[Node]) -> "WeightedGraph":
        """The induced mutable subgraph on *keep* (missing nodes are
        ignored)."""
        keep_set = set(keep)
        sub = WeightedGraph()
        for node in self.nodes:
            if node in keep_set:
                sub.add_node(node)
        for a, b, weight in self.edges():
            if a in keep_set and b in keep_set:
                sub.set_weight(a, b, weight)
        return sub

    def __eq__(self, other: object) -> bool:
        """Structural equality: same node set and same edge weights,
        whatever the class or the order."""
        if not isinstance(other, ProfileGraph):
            return NotImplemented
        if set(self.nodes) != set(other.nodes):
            return False
        return self._edge_dict() == other._edge_dict()

    def _edge_dict(self) -> dict[tuple[Node, Node], float]:
        return {(a, b): w for a, b, w in self.edges()}

    def __repr__(self) -> str:
        """Size summary, e.g. ``WeightedGraph(4 nodes, 3 edges)``."""
        return (
            f"{type(self).__name__}({len(self)} nodes, "
            f"{self.num_edges()} edges)"
        )


class WeightedGraph(ProfileGraph):
    """A mutable undirected graph with float edge weights.

    Self-edges are rejected: a code block never conflicts with itself.
    """

    def __init__(self) -> None:
        """Create an empty graph."""
        self._adj: dict[Node, dict[Node, float]] = {}

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

    def remove_edge(self, a: Node, b: Node) -> None:
        """Remove the edge ``{a, b}`` if present."""
        self._adj.get(a, {}).pop(b, None)
        self._adj.get(b, {}).pop(a, None)

    def remove_node(self, node: Node) -> None:
        """Remove *node* and all incident edges."""
        for neighbor in list(self._adj.get(node, {})):
            del self._adj[neighbor][node]
        self._adj.pop(node, None)

    def merge_nodes_into(self, target: Node, source: Node) -> None:
        """Fold *source* into *target*, summing parallel edge weights.

        This is the node-coalescing step of the PH working graph
        (Section 2): edges from either endpoint to a common neighbor
        ``r`` combine into a single edge of summed weight, and any edge
        between the two merged nodes disappears.
        """
        if target == source:
            raise PlacementError("cannot merge a node with itself")
        rows = self._adj
        if target not in rows or source not in rows:
            raise PlacementError("both nodes must be present to merge")
        merged = rows[target]
        merged.pop(source, None)
        for neighbor, weight in rows.pop(source).items():
            if neighbor == target:
                continue
            row = rows[neighbor]
            del row[source]
            total = merged.get(neighbor, 0.0) + weight
            merged[neighbor] = row[target] = total


def coalesce(working: WeightedGraph) -> Iterator[tuple[Node, Node]]:
    """The greedy outer loop of PH and GBSC (Sections 2 and 4.1).

    Yields ``(u, v)``, the endpoints of *working*'s heaviest edge, and
    once the caller's step for that pair is done (the next ``next``)
    folds *v* into *u* with :meth:`WeightedGraph.merge_nodes_into`;
    the loop ends when no edge is left.  An edge's keys are
    ``(-weight, repr(a), repr(b), a, b)`` with its endpoints as
    :meth:`~ProfileGraph.edges` gives them, and, after each merge into
    one of its endpoints, with that endpoint first; the smallest key
    pops first, which breaks ties reproducibly.

    An edge's key is pushed only when it is smaller than every key
    already pushed for that edge.  A merge only sums non-negative
    weights, so an edge never gets lighter, and the smallest key
    pushed for it is always current: the keys skipped could only have
    been popped as stale entries after it.  The heap traffic goes to
    the counters ``greedy.heap_pushes`` and ``greedy.stale_entries``.
    """
    reprs = {node: repr(node) for node in working.nodes}
    index = {node: position for position, node in enumerate(reprs)}
    size = len(index)
    best: dict[int, tuple] = {}
    # behind[b] holds each a whose edge's best key (-w, repr(a),
    # repr(b), a, b) loses to (-w, repr(b), repr(a), b, a): a merge
    # into b improves that edge's key even if its weight stays.
    behind: dict[Node, dict[Node, None]] = {}
    heap = []
    rows = working._adj

    def keep(key: tuple) -> None:
        """Make *key* its edge's best."""
        negated, repr_a, repr_b, a, b = key
        i, j = index[a], index[b]
        best[i * size + j if i < j else j * size + i] = key
        behind.get(a, {}).pop(b, None)
        if (negated, repr_b, repr_a, b, a) < key:
            behind.setdefault(b, {})[a] = None

    for a, b, weight in working.edges():
        key = (-weight, reprs[a], reprs[b], a, b)
        heap.append(key)
        keep(key)
    heapq.heapify(heap)
    pushes, stale = len(heap), 0
    try:
        while heap:
            negated, _, _, u, v = heapq.heappop(heap)
            if u not in rows or rows[u].get(v) != -negated:
                stale += 1
                continue
            yield u, v
            # Only u's edges to v's neighbours change weight; the rest
            # of u's edges can only improve by orientation.
            changed = [n for n in rows[v] if n != u]
            working.merge_nodes_into(u, v)
            behind.pop(v, None)
            row, repr_u, i = rows[u], reprs[u], index[u]
            for neighbor in chain(changed, behind.pop(u, ())):
                weight = row.get(neighbor)
                if weight is None:
                    continue  # merged away since
                key = (-weight, repr_u, reprs[neighbor], u, neighbor)
                j = index[neighbor]
                previous = best.get(i * size + j if i < j else j * size + i)
                if previous is None or key < previous:
                    heapq.heappush(heap, key)
                    pushes += 1
                    keep(key)
    finally:
        obs.inc("greedy.heap_pushes", pushes)
        obs.inc("greedy.stale_entries", stale)


def _sort_ranks(nodes: Sequence[Node]) -> tuple[np.ndarray, np.ndarray]:
    """Each node's rank in :func:`_canon_key` order, and the dense rank
    of its :func:`structural_node_key` (nodes sharing a key share a
    rank)."""
    keys = [_canon_key(node) for node in nodes]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    canon = np.empty(len(keys), dtype=np.int64)
    canon[order] = np.arange(len(keys))
    ranks = [0] * len(keys)
    rank, previous = -1, None
    for index in order:
        key = keys[index][0]
        if key != previous:
            rank, previous = rank + 1, key
        ranks[index] = rank
    return canon, np.array(ranks, dtype=np.int64)


class NodeTable:
    """A frozen graph's nodes in table order, with lookups computed
    once: the perturbed copies of one graph share one table."""

    def __init__(
        self,
        nodes: Iterable[Node],
        ranks: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        """A table of *nodes*; *ranks*, when given, are their
        :meth:`ranks`, already known."""
        self.nodes = tuple(nodes)
        self._ranks = ranks

    def __len__(self) -> int:
        """Number of nodes."""
        return len(self.nodes)

    @cached_property
    def index(self) -> dict[Node, int]:
        """Node → table position."""
        return {node: position for position, node in enumerate(self.nodes)}

    def ranks(self) -> tuple[np.ndarray, np.ndarray]:
        """``(canonical, structural)`` rank arrays (see
        :func:`_sort_ranks`)."""
        if self._ranks is None:
            self._ranks = _sort_ranks(self.nodes)
        return self._ranks


def _csr(
    num_nodes: int, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR rows of the graph whose edges ``{a[k], b[k]}`` are written
    in ``k`` order into both endpoints' rows — the rows
    :meth:`WeightedGraph.set_weight` makes on an edgeless graph.

    Returns ``(indptr, indices, slot)``; entry ``j`` belongs to edge
    ``slot[j]``.  Interleaving the two ends keeps each row in ``k``
    order under a stable sort.
    """
    ends = np.empty(2 * len(a), dtype=np.int64)
    ends[0::2] = a
    ends[1::2] = b
    others = np.empty_like(ends)
    others[0::2] = b
    others[1::2] = a
    order = np.argsort(ends, kind="stable")
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(ends, minlength=num_nodes), out=indptr[1:])
    return indptr, others[order], order // 2


class FrozenGraph(ProfileGraph):
    """An immutable undirected graph: a node table plus CSR rows.

    Row ``i`` (node ``i``'s neighbours as table positions, and the
    edge weights) is ``indices``/``weights`` at ``indptr[i] :
    indptr[i + 1]``; each edge sits once in each endpoint's row.  The
    rows are in the order a :class:`WeightedGraph` with the same
    history would hold them, so every read of the shared API matches.

    The constructor trusts its arrays (and makes them read-only):
    build one with :meth:`from_edges`, :func:`freeze` or a validating
    decoder.  :meth:`copy` and :meth:`subgraph` return a mutable
    :class:`WeightedGraph`.
    """

    def __init__(
        self,
        table: NodeTable,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        """Adopt the arrays, unchecked, and make them read-only."""
        for array in (indptr, indices, weights):
            array.flags.writeable = False
        self.table = table
        self.indptr = indptr
        self.indices = indices
        self.weights = weights

    @classmethod
    def from_edges(
        cls,
        nodes: Iterable[Node],
        a: np.ndarray,
        b: np.ndarray,
        weights: np.ndarray,
    ) -> "FrozenGraph":
        """The graph on *nodes* whose edge ``k`` joins table positions
        ``a[k]`` and ``b[k]`` with weight ``weights[k]``, rows written
        in ``k`` order (see :func:`_csr`).

        Each unordered pair may appear once.  A position outside the
        table, a self-edge or a negative weight raises
        :class:`~repro.errors.PlacementError`.
        """
        table = NodeTable(nodes)
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        if not len(a) == len(b) == len(weights):
            raise PlacementError("edge arrays differ in length")
        if len(a) and (
            min(a.min(), b.min()) < 0
            or max(a.max(), b.max()) >= len(table)
        ):
            raise PlacementError(
                f"edge endpoint outside the node table of {len(table)}"
            )
        loops = np.flatnonzero(a == b)
        if len(loops):
            node = table.nodes[int(a[loops[0]])]
            raise PlacementError(f"self-edge on {node!r} is not allowed")
        negative = np.flatnonzero(weights < 0)
        if len(negative):
            raise PlacementError(
                f"edge weight must be >= 0, got {weights[negative[0]]}"
            )
        indptr, indices, slot = _csr(len(table), a, b)
        return cls(table, indptr, indices, weights[slot])

    @cached_property
    def _adj(self) -> dict[Node, dict[Node, float]]:  # type: ignore[override]
        """The dict rows, built on the first dict-API read."""
        nodes = self.table.nodes
        neighbours = list(map(nodes.__getitem__, self.indices.tolist()))
        weights = self.weights.tolist()
        bounds = self.indptr.tolist()
        return {
            node: dict(
                zip(
                    neighbours[bounds[i] : bounds[i + 1]],
                    weights[bounds[i] : bounds[i + 1]],
                )
            )
            for i, node in enumerate(nodes)
        }

    def __contains__(self, node: object) -> bool:
        """True when *node* is in the graph."""
        return node in self.table.index

    def __len__(self) -> int:
        """Number of nodes."""
        return len(self.table)

    @property
    def nodes(self) -> list[Node]:
        """All nodes, in table order."""
        return list(self.table.nodes)

    def num_edges(self) -> int:
        """Number of (undirected) edges."""
        return len(self.indices) // 2

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every edge once as ``(a, b, weights)``: table positions, ``a``
        the endpoint earlier in the table, in :meth:`edges` order."""
        row = np.repeat(np.arange(len(self), dtype=np.int64), np.diff(self.indptr))
        upper = self.indices > row
        return row[upper], self.indices[upper], self.weights[upper]

    def _oriented(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`edge_arrays` with each edge's ends in canonical order."""
        a, b, weights = self.edge_arrays()
        canon = self.table.ranks()[0]
        swap = canon[a] > canon[b]
        return np.where(swap, b, a), np.where(swap, a, b), weights

    def edges(self) -> Iterator[tuple[Node, Node, float]]:
        """All edges once each, as ``(a, b, weight)``, in the order and
        orientation of :meth:`ProfileGraph.edges`."""
        a, b, weights = self._oriented()
        nodes = self.table.nodes
        return zip(
            map(nodes.__getitem__, a.tolist()),
            map(nodes.__getitem__, b.tolist()),
            weights.tolist(),
        )

    def canonical_edges(self) -> "CanonicalEdges":
        """The edges in perturbation draw order, computed once."""
        return self._canonical

    @cached_property
    def _canonical(self) -> "CanonicalEdges":
        table = self.table
        canon, structural = table.ranks()
        count = len(table)
        a, b, weights = self._oriented()
        order = np.argsort(structural[a] * count + structural[b], kind="stable")
        node_order = np.argsort(structural, kind="stable")
        position = np.empty(count, dtype=np.int64)
        position[node_order] = np.arange(count)
        a = position[a[order]]
        b = position[b[order]]
        indptr, indices, slot = _csr(count, a, b)
        sorted_table = NodeTable(
            map(table.nodes.__getitem__, node_order.tolist()),
            (canon[node_order], structural[node_order]),
        )
        return CanonicalEdges(
            sorted_table, a, b, weights[order], indptr, indices, slot
        )


@dataclass(frozen=True, eq=False)
class CanonicalEdges:
    """A graph's edges in the order perturbation draws for them.

    * ``table``: the nodes, stably sorted by :func:`structural_node_key`
      (nodes that share a key keep their insertion order);
    * ``a``, ``b``, ``weights``: every edge once, as positions in
      ``table`` oriented as :meth:`ProfileGraph.edges` orients it, and
      its weight; the edges are stably sorted by the structural keys of
      ``(a, b)`` over :meth:`~ProfileGraph.edges` order;
    * ``indptr``, ``indices``, ``slot``: the CSR rows of a graph on
      ``table`` written edge by edge in this order (see :func:`_csr`),
      which :meth:`reweighted` graphs share.
    """

    table: NodeTable
    a: np.ndarray
    b: np.ndarray
    weights: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    slot: np.ndarray

    def reweighted(self, weights: np.ndarray) -> FrozenGraph:
        """The graph on these edges with edge ``k`` weighing
        ``weights[k]``; it shares the table and the index arrays."""
        return FrozenGraph(
            self.table, self.indptr, self.indices, weights[self.slot]
        )


def freeze(graph: ProfileGraph) -> FrozenGraph:
    """*graph* as a :class:`FrozenGraph` with the same node and row
    order; a frozen graph is returned as it is."""
    if isinstance(graph, FrozenGraph):
        return graph
    rows = graph._adj
    index = {node: position for position, node in enumerate(rows)}
    lengths = np.fromiter(map(len, rows.values()), np.int64, len(rows))
    total = int(lengths.sum())
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    indices = np.fromiter(
        map(index.__getitem__, chain.from_iterable(rows.values())),
        np.int64,
        total,
    )
    weights = np.fromiter(
        chain.from_iterable(map(dict.values, rows.values())),
        np.float64,
        total,
    )
    return FrozenGraph(NodeTable(rows), indptr, indices, weights)
