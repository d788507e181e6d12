"""Local-search placement driven by the TRG conflict metric.

Figure 6 shows the chunk-granularity TRG metric is (nearly) linear in
the simulated conflict misses.  That makes it a usable *objective
function*: instead of GBSC's single greedy pass, this placement runs
coordinate-descent over the cache-relative offsets of the popular
procedures, repeatedly moving one procedure to the offset that
minimises the total TRG_place cost against all currently placed
procedures, until a pass makes no improvement.

This is not an algorithm from the paper; it is the natural "how much
does greediness cost?" comparator the paper's metric enables, and the
benchmark harness uses it to sanity-check GBSC's placement quality.
"""

from __future__ import annotations

import random as _random

import numpy as np

from repro.cache.config import CacheConfig
from repro.core.linearize import linearize
from repro.core.merge import ChunkWeights, MergeNode, PlacedProcedure
from repro.errors import PlacementError
from repro.placement.base import PlacementContext
from repro.profiles.graph import ProfileGraph
from repro.program.layout import Layout
from repro.program.program import Program


class _PairTables:
    """Pairwise cost tables: ``cost(p, q, d)`` for relative offset d.

    ``table[p][q][d]`` is the TRG_place cost of placing *q*'s start
    ``d`` cache lines after *p*'s — precomputed once per pair that has
    at least one cross-procedure chunk edge, with one
    :class:`~repro.core.merge.ChunkWeights` index over *procedures*,
    the same FFT evaluator the GBSC merge step uses.
    """

    def __init__(
        self,
        procedures: list[str],
        place_graph: ProfileGraph,
        program: Program,
        config: CacheConfig,
        chunk_size: int,
    ) -> None:
        self._tables: dict[str, dict[str, np.ndarray]] = {
            name: {} for name in procedures
        }
        # Which procedure pairs actually share chunk edges?
        partners: dict[str, set[str]] = {name: set() for name in procedures}
        known = set(procedures)
        for a, b, _ in place_graph.edges():
            pa = getattr(a, "procedure", None)
            pb = getattr(b, "procedure", None)
            if pa in known and pb in known and pa != pb:
                partners[pa].add(pb)
                partners[pb].add(pa)
        weights = ChunkWeights(
            place_graph, program, config, procedures, chunk_size
        )
        for p in procedures:
            for q in partners[p]:
                if q in self._tables[p]:
                    continue
                table = weights.offset_costs(
                    MergeNode.single(p), MergeNode.single(q)
                )
                self._tables[p][q] = table
                # cost is symmetric under d -> -d with roles swapped.
                self._tables[q][p] = np.concatenate(
                    ([table[0]], table[1:][::-1])
                )

    def partners(self, name: str) -> dict[str, np.ndarray]:
        return self._tables[name]

    def move_costs(
        self, name: str, offsets: dict[str, int], num_lines: int
    ) -> np.ndarray:
        """Total cost of every candidate offset for *name*.

        ``costs[o] = sum_q table[name][q][(offset_q - o) mod C]``.
        """
        costs = np.zeros(num_lines)
        candidates = np.arange(num_lines)
        for q, table in self._tables[name].items():
            if q == name or q not in offsets:
                continue
            costs += table[(offsets[q] - candidates) % num_lines]
        return costs

    def total_cost(
        self, offsets: dict[str, int], num_lines: int
    ) -> float:
        total = 0.0
        for p, tables in self._tables.items():
            for q, table in tables.items():
                if repr(p) < repr(q):  # count each pair once
                    total += float(
                        table[(offsets[q] - offsets[p]) % num_lines]
                    )
        return total


class TRGOptimizerPlacement:
    """Coordinate-descent over cache offsets, minimising the TRG cost.

    Parameters
    ----------
    seed:
        Shuffles the per-pass visit order (descent is order-dependent).
    max_passes:
        Upper bound on full passes; descent stops at the first pass
        with no improving move.
    start_from:
        Optional placement whose layout seeds the offsets; defaults to
        the popular procedures all starting at offset 0.
    """

    name = "TRG-opt"

    def __init__(
        self,
        seed: int = 0,
        max_passes: int = 8,
        start_from: object | None = None,
    ) -> None:
        if max_passes < 1:
            raise PlacementError("max_passes must be >= 1")
        self._seed = seed
        self._max_passes = max_passes
        self._start_from = start_from

    def place(self, context: PlacementContext) -> Layout:
        trgs = context.require_trgs()
        config = context.config
        program = context.program
        popular = list(context.popular)
        if not popular:
            popular = sorted(trgs.select.nodes)

        offsets = self._initial_offsets(context, popular)
        tables = _PairTables(
            popular, trgs.place, program, config, trgs.chunk_size
        )

        rng = _random.Random(self._seed)
        num_lines = config.num_lines
        for _ in range(self._max_passes):
            improved = False
            order = list(popular)
            rng.shuffle(order)
            for name in order:
                costs = tables.move_costs(name, offsets, num_lines)
                current = costs[offsets[name]]
                best = int(np.argmin(costs))
                if costs[best] < current - 1e-12:
                    offsets[name] = best
                    improved = True
            if not improved:
                break

        nodes = tuple(
            MergeNode([PlacedProcedure(name, offsets[name])])
            for name in popular
        )
        popular_set = set(popular)
        unpopular = [n for n in program.names if n not in popular_set]
        return linearize(nodes, program, config, unpopular).layout

    def _initial_offsets(
        self, context: PlacementContext, popular: list[str]
    ) -> dict[str, int]:
        if self._start_from is None:
            return {name: 0 for name in popular}
        base_layout = self._start_from.place(context)  # type: ignore[attr-defined]
        return {
            name: base_layout.start_set_of(name, context.config)
            for name in popular
        }
