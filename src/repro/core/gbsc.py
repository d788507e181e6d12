"""The GBSC procedure-placement algorithm (Section 4).

GBSC keeps the greedy outer loop of Pettis & Hansen but changes both
the information driving it and the placement step:

* the working graph is ``TRG_select`` — temporal interleaving counts
  over *popular* procedures, not call counts;
* nodes hold ``(procedure, cache-line offset)`` tuples instead of
  chains, and merging evaluates every relative cache offset with the
  chunk-granularity ``TRG_place`` weights (Figure 4);
* because ``TRG_select`` covers only popular procedures it may not
  collapse to a single node; the final linear order is produced by the
  Section 4.3 gap-minimising scan, with unpopular procedures filling
  the gaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro import obs
from repro.cache.config import CacheConfig
from repro.core.linearize import LinearizationResult, linearize
from repro.core.merge import ChunkWeights, MergeNode, merge_nodes
from repro.placement.base import PlacementContext
from repro.profiles.graph import ProfileGraph, coalesce
from repro.program.layout import Layout
from repro.program.procedure import DEFAULT_CHUNK_SIZE
from repro.program.program import Program

#: One pairwise step of the greedy loop: ``(n1, n2) -> merged node``.
MergeStep = Callable[[MergeNode, MergeNode], MergeNode]


@dataclass(frozen=True)
class GBSCResult:
    """Full output of a GBSC run, including the merge products."""

    linearization: LinearizationResult
    nodes: tuple[MergeNode, ...]

    @property
    def layout(self) -> Layout:
        return self.linearization.layout


def gbsc_nodes(
    select_graph: ProfileGraph,
    place_graph: ProfileGraph,
    popular: Sequence[str],
    program: Program,
    config: CacheConfig,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    merge: MergeStep | None = None,
) -> tuple[MergeNode, ...]:
    """Run the greedy merging phase and return the surviving nodes.

    The working graph starts as the popular-procedure restriction of
    ``TRG_select``; each step merges the endpoints of its heaviest edge
    (:func:`~repro.profiles.graph.coalesce`, PH's loop, with its
    deterministic tie-breaks) until no edges remain.
    *merge* is the pairwise step; the default is Figure 4's
    :func:`~repro.core.merge.merge_nodes` against one
    :class:`~repro.core.merge.ChunkWeights` index over *place_graph*,
    built here and dropped when the call returns.
    """
    with obs.span("gbsc_merge", popular=len(popular)):
        if merge is None:
            weights = ChunkWeights(
                place_graph, program, config, popular, chunk_size
            )

            def merge(n1: MergeNode, n2: MergeNode) -> MergeNode:
                return merge_nodes(n1, n2, weights)

        working = select_graph.subgraph(popular)
        for name in popular:
            working.add_node(name)
        nodes: dict[str, MergeNode] = {
            name: MergeNode.single(name) for name in popular
        }

        for u, v in coalesce(working):
            nodes[u] = merge(nodes[u], nodes.pop(v))
            obs.inc("gbsc.merge.edges_merged")

        # Deterministic order: larger nodes first, then by first member.
        ordered = sorted(
            nodes.values(), key=lambda node: (-len(node), node.names[0])
        )
    obs.set_gauge("gbsc.merge.nodes_remaining", len(ordered))
    return tuple(ordered)


class GBSCPlacement:
    """Temporal-ordering procedure placement (the paper's algorithm).

    ``page_affinity=True`` enables the Section 4.3 variant of the
    final linearization: gap ties are broken toward procedures with
    high TRG_select affinity to the previously placed one, packing
    temporally related code onto the same pages without changing any
    cache-relative offset.
    """

    name = "GBSC"

    def __init__(self, *, page_affinity: bool = False) -> None:
        self._page_affinity = page_affinity

    def place(self, context: PlacementContext) -> Layout:
        return self.place_detailed(context).layout

    def place_detailed(self, context: PlacementContext) -> GBSCResult:
        """Run GBSC and return the layout plus the merge products."""
        trgs = context.require_trgs()
        popular = context.popular
        if not popular:
            # Without an explicit popular set, every procedure that
            # appears in TRG_select participates.
            popular = tuple(sorted(trgs.select.nodes))
        nodes = gbsc_nodes(
            trgs.select,
            trgs.place,
            popular,
            context.program,
            context.config,
            trgs.chunk_size,
        )
        popular_set = set(popular)
        unpopular = [
            n for n in context.program.names if n not in popular_set
        ]
        linearization = linearize(
            nodes,
            context.program,
            context.config,
            unpopular,
            affinity=trgs.select if self._page_affinity else None,
        )
        return GBSCResult(linearization=linearization, nodes=nodes)
