"""The GBSC node structure and ``merge_nodes`` step (Figure 4).

A working-graph node is a set of ``(procedure, cache-line offset)``
tuples: every procedure the node has absorbed, with the cache-relative
alignment chosen for it.  Merging two nodes evaluates every relative
offset ``0..num_lines-1`` of the second node's layout against the
first node's layout, scoring each with the chunk-granularity
``TRG_place`` weights, and keeps the *first* offset achieving the
minimum cost (which makes the two-small-procedures case reduce to a PH
chain — Section 4.2).

Two evaluators of the cost vector exist:

* :meth:`ChunkWeights.offset_costs` — the one ``merge_nodes`` runs: a
  sum of circular cross-correlations via real FFTs, O(n·C log C), over
  a chunk index built once per placement (:func:`offset_costs_fast`
  builds one for a single pair);
* :func:`offset_costs_reference` — the literal quadruple loop of
  Figure 4, O(C²·k²), its scalar twin.

The test suite asserts they agree to floating-point tolerance on random
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.cache.config import CacheConfig
from repro.errors import PlacementError
from repro.fastpath import fast_path
from repro.profiles.graph import ProfileGraph, freeze
from repro.program.procedure import DEFAULT_CHUNK_SIZE, ChunkId
from repro.program.program import Program

#: Relative tolerance when identifying equal-cost offsets from the FFT
#: evaluator (FFT round-off is ~1e-15 of the cost magnitude).
_COST_RTOL = 1e-9


@dataclass(frozen=True, slots=True)
class PlacedProcedure:
    """One procedure with its cache-line offset within a node."""

    name: str
    offset: int

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise PlacementError(
                f"cache-line offset must be >= 0, got {self.offset}"
            )


class MergeNode:
    """An immutable set of placed procedures (one TRG_select node)."""

    def __init__(self, placements: Sequence[PlacedProcedure]) -> None:
        self._placements = tuple(placements)
        names = [p.name for p in self._placements]
        if len(set(names)) != len(names):
            raise PlacementError(
                "a merge node cannot contain a procedure twice"
            )

    @classmethod
    def single(cls, name: str) -> "MergeNode":
        """A fresh node holding one procedure at offset 0 (Section 4.2)."""
        return cls((PlacedProcedure(name, 0),))

    @property
    def placements(self) -> tuple[PlacedProcedure, ...]:
        return self._placements

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self._placements)

    def offset_of(self, name: str) -> int:
        for placement in self._placements:
            if placement.name == name:
                return placement.offset
        raise PlacementError(f"procedure {name!r} is not in this node")

    def shifted(self, delta: int, num_lines: int) -> "MergeNode":
        """All offsets moved by *delta* lines, modulo the cache."""
        return MergeNode(
            tuple(
                PlacedProcedure(p.name, (p.offset + delta) % num_lines)
                for p in self._placements
            )
        )

    def combined_with(self, other: "MergeNode") -> "MergeNode":
        return MergeNode(self._placements + other._placements)

    def __len__(self) -> int:
        return len(self._placements)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MergeNode):
            return NotImplemented
        return set(self._placements) == set(other._placements)

    def __repr__(self) -> str:
        return f"MergeNode({list(self._placements)!r})"


def line_occupancy(
    node: MergeNode,
    program: Program,
    config: CacheConfig,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> list[list[ChunkId]]:
    """Per-cache-line lists of the chunks the node maps there.

    This is the ``CACHE`` array of Figure 4, at chunk granularity: each
    cache line of the node's layout lists the procedure chunks whose
    code occupies that line.  Procedures larger than the cache wrap and
    contribute several chunks to the same line.
    """
    lines: list[list[ChunkId]] = [[] for _ in range(config.num_lines)]
    for placement in node.placements:
        size = program.size_of(placement.name)
        n_lines = len(config.lines_spanned(0, size))
        for i in range(n_lines):
            line = (placement.offset + i) % config.num_lines
            # A line holds bytes [i*line_size, (i+1)*line_size) of the
            # procedure; credit every chunk overlapping that span, not
            # just the chunk containing the first byte — they differ
            # whenever chunk_size is not a multiple of line_size.
            line_start = i * config.line_size
            line_end = min(line_start + config.line_size, size)
            first = line_start // chunk_size
            last = (line_end - 1) // chunk_size
            for chunk_index in range(first, last + 1):
                lines[line].append(ChunkId(placement.name, chunk_index))
    return lines


def offset_costs_reference(
    n1: MergeNode,
    n2: MergeNode,
    place_graph: ProfileGraph,
    program: Program,
    config: CacheConfig,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> np.ndarray:
    """The literal Figure 4 cost computation (quadruple loop).

    ``costs[i]`` is the TRG_place conflict cost of offsetting node
    *n2*'s layout by ``i`` cache lines relative to node *n1*'s.
    Only cross-node conflicts are counted; intra-node conflicts do not
    change with the offset (Section 4.2, second note).
    """
    c1 = line_occupancy(n1, program, config, chunk_size)
    c2 = line_occupancy(n2, program, config, chunk_size)
    num_lines = config.num_lines
    costs = np.zeros(num_lines)
    for i in range(num_lines):
        metric = 0.0
        for j in range(num_lines):
            for p1 in c1[(j + i) % num_lines]:
                for p2 in c2[j]:
                    metric += place_graph.weight(p1, p2)
        costs[i] = metric
    return costs


def _run_positions(lengths: np.ndarray) -> np.ndarray:
    """``0..n-1`` for each run length ``n``, concatenated."""
    return np.arange(int(lengths.sum())) - np.repeat(
        np.cumsum(lengths) - lengths, lengths
    )


def _indicator(
    lines: np.ndarray, columns: np.ndarray, num_lines: int, width: int
) -> np.ndarray:
    """The ``(num_lines, width)`` float matrix counting each
    ``(lines[k], columns[k])`` pair."""
    counts = np.bincount(lines * width + columns, minlength=num_lines * width)
    return counts.reshape(num_lines, width).astype(float)


class ChunkWeights:
    """One placement's chunk index: occupancy patterns and weights.

    Built once per placement from ``TRG_place`` (any
    :class:`~repro.profiles.graph.ProfileGraph`; its frozen edge arrays
    fill the matrix, with no walk over neighbours) and the procedures
    that take part, it holds everything the Figure 4 cost needs as
    arrays:

    * one *slot* per chunk of those procedures, in sorted ``ChunkId``
      order;
    * a dense float64 weight matrix over the chunks with a
      ``TRG_place`` edge inside the set, plus one all-zero row and
      column that every other chunk maps to;
    * per procedure, its ``(relative line, chunk slot)`` pattern,
      following :func:`line_occupancy`'s rule for chunks that straddle
      a line.

    A node's occupancy is then its procedures' patterns shifted by
    their offsets modulo ``C``, and a merge no longer walks the graph.
    A node that :meth:`merged` made keeps its occupancy, derived from
    its two parts', until a later merge absorbs it, so a greedy loop
    never rebuilds a growing node from every procedure.
    """

    def __init__(
        self,
        place_graph: ProfileGraph,
        program: Program,
        config: CacheConfig,
        names: Sequence[str],
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        self.num_lines = config.num_lines
        ordered = sorted(set(names))
        sizes = np.asarray(
            [program.size_of(name) for name in ordered], dtype=np.int64
        )
        num_chunks = -(-sizes // chunk_size)
        first_slot = np.cumsum(num_chunks) - num_chunks
        self._num_slots = int(num_chunks.sum())

        # Every (line, chunk) pair of every procedure at offset 0, by
        # line_occupancy's rule: line i holds bytes [i*line_size,
        # (i+1)*line_size) and credits each chunk overlapping them.
        line_size = config.line_size
        lines_spanned = -(-sizes // line_size)
        owner = np.repeat(np.arange(len(ordered)), lines_spanned)
        line = _run_positions(lines_spanned)
        start = line * line_size
        first = start // chunk_size
        last = (np.minimum(start + line_size, sizes[owner]) - 1) // chunk_size
        per_line = last - first + 1
        pair_owner = np.repeat(owner, per_line)
        pair_line = np.repeat(line, per_line)
        pair_slot = (
            first_slot[pair_owner]
            + np.repeat(first, per_line)
            + _run_positions(per_line)
        )
        bounds = np.searchsorted(pair_owner, np.arange(len(ordered) + 1))
        slots = np.arange(self._num_slots)
        # occupancy() hands a single procedure's pattern out as it is.
        for array in (pair_line, pair_slot, slots):
            array.flags.writeable = False
        self._patterns = {
            name: (
                pair_line[bounds[k] : bounds[k + 1]],
                pair_slot[bounds[k] : bounds[k + 1]],
                slots[first_slot[k] : first_slot[k] + num_chunks[k]],
            )
            for k, name in enumerate(ordered)
        }

        #: The chunk in each slot.
        self.chunks = tuple(
            ChunkId(name, index)
            for k, name in enumerate(ordered)
            for index in range(int(num_chunks[k]))
        )
        slot_of = {chunk: slot for slot, chunk in enumerate(self.chunks)}
        graph = freeze(place_graph)
        slot = np.fromiter(
            (slot_of.get(node, -1) for node in graph.table.nodes),
            dtype=np.int64,
            count=len(graph),
        )
        a, b, weight = graph.edge_arrays()
        source, target = slot[a], slot[b]
        inside = (source >= 0) & (target >= 0)
        source, target = source[inside], target[inside]
        connected = np.unique(np.concatenate((source, target)))
        self._row_of = np.full(self._num_slots, len(connected))
        self._row_of[connected] = np.arange(len(connected))
        self._matrix = np.zeros((len(connected) + 1, len(connected) + 1))
        rows, columns = self._row_of[source], self._row_of[target]
        self._matrix[rows, columns] = weight[inside]
        self._matrix[columns, rows] = weight[inside]

        #: ``id(node) -> (node, lines, slots, chunks)`` for each live
        #: node :meth:`merged` made; holding the node keeps its id.
        self._occupied: dict[
            int, tuple[MergeNode, np.ndarray, np.ndarray, np.ndarray]
        ] = {}

    def occupancy(
        self, node: MergeNode
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The node's ``(cache line, chunk slot)`` pairs, as two arrays,
        and the sorted slots of all its chunks.

        The pairs are :func:`line_occupancy` of the node as a multiset,
        with chunks given by slot (see :attr:`chunks`).
        """
        occupied = self._occupied.get(id(node))
        if occupied is not None:
            return occupied[1:]
        try:
            patterns = [self._patterns[p.name] for p in node.placements]
        except KeyError as error:
            raise PlacementError(
                f"procedure {error.args[0]!r} is not in this chunk index"
            ) from None
        if len(patterns) == 1:
            lines, slots, chunks = patterns[0]
            offset = node.placements[0].offset
            return (lines + offset) % self.num_lines, slots, chunks
        lengths = [len(pattern[0]) for pattern in patterns]
        shifts = np.repeat([p.offset for p in node.placements], lengths)
        lines = np.concatenate([pattern[0] for pattern in patterns]) + shifts
        slots = np.concatenate([pattern[1] for pattern in patterns])
        chunks = np.sort(np.concatenate([pattern[2] for pattern in patterns]))
        return lines % self.num_lines, slots, chunks

    def merged(self, n1: MergeNode, n2: MergeNode, offset: int) -> MergeNode:
        """*n1* combined with *n2* shifted by *offset* lines.

        The merged node's occupancy is *n1*'s pairs followed by *n2*'s
        with their lines shifted, which is :meth:`occupancy` of the
        merged node, element for element; it is kept in place of the
        two parts'.
        """
        lines1, slots1, chunks1 = self.occupancy(n1)
        lines2, slots2, chunks2 = self.occupancy(n2)
        node = n1.combined_with(n2.shifted(offset, self.num_lines))
        self._occupied.pop(id(n1), None)
        self._occupied.pop(id(n2), None)
        self._occupied[id(node)] = (
            node,
            np.concatenate((lines1, (lines2 + offset) % self.num_lines)),
            np.concatenate((slots1, slots2)),
            np.sort(np.concatenate((chunks1, chunks2))),
        )
        return node

    def offset_costs(self, n1: MergeNode, n2: MergeNode) -> np.ndarray:
        """The Figure 4 cost vector of shifting *n2* against *n1*.

        With ``L1``/``L2`` the line-occupancy indicator matrices and
        ``W`` the cross-node chunk weights, ``cost(i) = sum_j (L1 W)[(j
        + i) % C] · L2[j]`` — a circular cross-correlation per chunk
        column, computed with real FFTs of length ``C``.  The columns
        are every chunk of *n2*, the rows every chunk of *n1* with an
        edge into *n2*, both sorted: that exact shape keeps the result
        bit-identical however large the index, which the GBSC-SA
        tie-break relies on.  The nodes must not share a procedure.
        """
        num_lines = self.num_lines
        lines1, slots1, chunks1 = self.occupancy(n1)
        lines2, slots2, chunks2 = self.occupancy(n2)
        block = self._matrix[
            np.ix_(self._row_of[chunks1], self._row_of[chunks2])
        ]
        linked = block.any(axis=1)
        if not linked.any():
            return np.zeros(num_lines)
        weights = block[linked]
        rows = chunks1[linked]

        column = np.full(self._num_slots, -1)
        column[rows] = np.arange(len(rows))
        column[chunks2] = np.arange(len(chunks2))
        kept = column[slots1] >= 0
        l1 = _indicator(
            lines1[kept], column[slots1[kept]], num_lines, len(rows)
        )
        l2 = _indicator(lines2, column[slots2], num_lines, len(chunks2))

        g = l1 @ weights  # (C, n2): weight mass n1 projects onto each line
        # Keep this one expression: numpy may multiply into a temporary
        # operand in place, and its bits then differ from a product of
        # views (a batched rfft over [g | l2] changed 6 of gcc's 149
        # merges in the last bit).
        spectrum = (
            np.fft.rfft(g, axis=0) * np.conj(np.fft.rfft(l2, axis=0))
        ).sum(axis=1)
        costs = np.fft.irfft(spectrum, n=num_lines)
        # Costs are sums of non-negative weights; clip FFT round-off.
        return np.maximum(costs, 0.0)


@fast_path(scalar="repro.core.merge.offset_costs_reference")
def offset_costs_fast(
    n1: MergeNode,
    n2: MergeNode,
    place_graph: ProfileGraph,
    program: Program,
    config: CacheConfig,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> np.ndarray:
    """FFT evaluation of the Figure 4 cost vector for one pair.

    Builds a :class:`ChunkWeights` over the two nodes' procedures and
    runs its cost; a placement builds one index and reuses it instead.
    """
    weights = ChunkWeights(
        place_graph, program, config, n1.names + n2.names, chunk_size
    )
    return weights.offset_costs(n1, n2)


def tied_offsets(costs: np.ndarray) -> np.ndarray:
    """Every offset whose cost ties the minimum, in ascending order.

    A small relative tolerance groups offsets whose FFT-computed costs
    differ only by round-off.
    """
    costs = np.asarray(costs, dtype=float)
    minimum = float(costs.min())
    tolerance = _COST_RTOL * max(1.0, float(np.abs(costs).max()))
    return np.nonzero(costs <= minimum + tolerance)[0]


def best_offset(costs: np.ndarray) -> int:
    """First offset achieving the minimum cost (Section 4.2, note 3)."""
    return int(tied_offsets(costs)[0])


def merge_nodes(
    n1: MergeNode, n2: MergeNode, weights: ChunkWeights
) -> MergeNode:
    """Merge two nodes at the best relative alignment (Figure 4).

    *weights* is the placement's :class:`ChunkWeights` index.  The
    relative alignment of procedures *within* each node is left
    unchanged; only node *n2* as a whole is shifted.
    """
    if set(n1.names) & set(n2.names):
        raise PlacementError("nodes being merged share a procedure")
    costs = weights.offset_costs(n1, n2)
    obs.inc("gbsc.merge.merges")
    obs.inc("gbsc.merge.offsets_evaluated", weights.num_lines)
    return weights.merged(n1, n2, best_offset(costs))
