"""The paper's contribution: GBSC placement and its building blocks."""

from repro.core.gbsc import GBSCPlacement, GBSCResult, gbsc_nodes
from repro.core.linearize import LinearizationResult, linearize
from repro.core.merge import (
    ChunkWeights,
    MergeNode,
    PlacedProcedure,
    best_offset,
    line_occupancy,
    merge_nodes,
    offset_costs_fast,
    offset_costs_reference,
)
from repro.core.popular import DEFAULT_COVERAGE, PopularSelection, select_popular
from repro.core.splitting import (
    COLD_SUFFIX,
    SplitResult,
    chunk_execution_counts,
    split_procedures,
)
from repro.core.setassoc import (
    GBSCSetAssociativePlacement,
    PairIndex,
    merge_nodes_sa,
    sa_offset_costs,
    sa_offset_costs_reference,
)

__all__ = [
    "ChunkWeights",
    "DEFAULT_COVERAGE",
    "GBSCPlacement",
    "GBSCResult",
    "GBSCSetAssociativePlacement",
    "LinearizationResult",
    "MergeNode",
    "PairIndex",
    "PlacedProcedure",
    "PopularSelection",
    "best_offset",
    "gbsc_nodes",
    "line_occupancy",
    "linearize",
    "merge_nodes",
    "merge_nodes_sa",
    "offset_costs_fast",
    "offset_costs_reference",
    "COLD_SUFFIX",
    "SplitResult",
    "chunk_execution_counts",
    "sa_offset_costs",
    "sa_offset_costs_reference",
    "select_popular",
    "split_procedures",
]
