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

* :func:`offset_costs_fast` — the one ``merge_nodes`` runs: a sum of
  circular cross-correlations via real FFTs, O(n·C log C);
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
from repro.profiles.graph import WeightedGraph
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
    place_graph: WeightedGraph,
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


@fast_path(scalar="repro.core.merge.offset_costs_reference")
def offset_costs_fast(
    n1: MergeNode,
    n2: MergeNode,
    place_graph: WeightedGraph,
    program: Program,
    config: CacheConfig,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> np.ndarray:
    """FFT evaluation of the Figure 4 cost vector.

    With ``L1``/``L2`` the line-occupancy indicator matrices and ``W``
    the cross-node chunk weights, ``cost(i) = sum_j (L1 W)[(j+i) % C]
    · L2[j]`` — a circular cross-correlation per chunk column, computed
    with real FFTs of length ``C``.
    """
    c1 = line_occupancy(n1, program, config, chunk_size)
    c2 = line_occupancy(n2, program, config, chunk_size)
    num_lines = config.num_lines

    chunks2 = sorted({chunk for line in c2 for chunk in line})
    chunks2_set = set(chunks2)
    # Only chunks of n1 with an edge into n2 can contribute any cost.
    unique1 = {chunk for line in c1 for chunk in line}
    chunks1 = sorted(
        chunk
        for chunk in unique1
        if place_graph.has_neighbor_in(chunk, chunks2_set)
    )
    if not chunks1:
        return np.zeros(num_lines)

    index1 = {chunk: k for k, chunk in enumerate(chunks1)}
    index2 = {chunk: k for k, chunk in enumerate(chunks2)}
    l1 = np.zeros((num_lines, len(chunks1)))
    for line, members in enumerate(c1):
        for chunk in members:
            k = index1.get(chunk)
            if k is not None:
                l1[line, k] += 1.0
    l2 = np.zeros((num_lines, len(chunks2)))
    for line, members in enumerate(c2):
        for chunk in members:
            l2[line, index2[chunk]] += 1.0
    weights = np.zeros((len(chunks1), len(chunks2)))
    for a, ka in index1.items():
        for neighbor in place_graph.neighbors(a):
            kb = index2.get(neighbor)
            if kb is not None:
                weights[ka, kb] = place_graph.weight(a, neighbor)

    g = l1 @ weights  # (C, n2): weight mass n1 projects onto each line
    spectrum = (np.fft.rfft(g, axis=0) * np.conj(np.fft.rfft(l2, axis=0))).sum(
        axis=1
    )
    costs = np.fft.irfft(spectrum, n=num_lines)
    # Costs are sums of non-negative weights; clip FFT round-off.
    return np.maximum(costs, 0.0)


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
    n1: MergeNode,
    n2: MergeNode,
    place_graph: WeightedGraph,
    program: Program,
    config: CacheConfig,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> MergeNode:
    """Merge two nodes at the best relative alignment (Figure 4).

    The relative alignment of procedures *within* each node is left
    unchanged; only node *n2* as a whole is shifted.
    """
    if set(n1.names) & set(n2.names):
        raise PlacementError("nodes being merged share a procedure")
    costs = offset_costs_fast(n1, n2, place_graph, program, config, chunk_size)
    obs.inc("gbsc.merge.offsets_evaluated", config.num_lines)
    offset = best_offset(costs)
    return n1.combined_with(n2.shifted(offset, config.num_lines))
