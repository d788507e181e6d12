"""GBSC extension for set-associative caches (Section 6).

For an ``a``-way LRU cache, a single intervening block cannot displace
``p``; at least ``a`` distinct blocks mapping to ``p``'s set must
appear between consecutive references.  For two-way caches the paper
replaces ``TRG_place`` with a database ``D(p, {r, s})`` counting how
often the *pair* ``{r, s}`` appeared between consecutive references to
``p`` (built in :mod:`repro.profiles.pairdb`), and changes the
``merge_nodes`` cost: the association of a block in one node is checked
against all pairs of blocks in the other node.

We build ``D`` at procedure granularity (the pair database at chunk
granularity is quadratically larger; DESIGN.md records this choice) and
score a candidate offset by ``D(p, {r, s})`` times the number of cache
sets all three procedures share at that offset.
"""

from __future__ import annotations

import numpy as np

from repro.cache.config import CacheConfig
from repro.core.gbsc import gbsc_nodes
from repro.core.linearize import linearize
from repro.core.merge import (
    ChunkWeights,
    MergeNode,
    best_offset,
    tied_offsets,
)
from repro.errors import PlacementError
from repro.fastpath import fast_path
from repro.placement.base import PlacementContext
from repro.profiles.pairdb import PairDatabase
from repro.program.layout import Layout
from repro.program.program import Program


def _set_mask(
    offset_lines: int, size: int, program_config: CacheConfig
) -> np.ndarray:
    """Boolean occupancy over cache sets for a procedure at an offset."""
    num_sets = program_config.num_sets
    mask = np.zeros(num_sets, dtype=float)
    n_lines = len(program_config.lines_spanned(0, size))
    for k in range(min(n_lines, num_sets)):
        mask[(offset_lines + k) % num_sets] = 1.0
    if n_lines >= num_sets:
        mask[:] = 1.0
    return mask


@fast_path(scalar="repro.core.setassoc.sa_offset_costs_reference")
def sa_offset_costs(
    n1: MergeNode,
    n2: MergeNode,
    pair_db: PairDatabase,
    program: Program,
    config: CacheConfig,
) -> np.ndarray:
    """Cost of each relative *set* offset of node *n2* against *n1*.

    ``costs[i]`` sums, over every recorded association ``D(p, {r, s})``
    with ``p`` in one node and ``{r, s}`` both in the other, the
    association count weighted by the number of sets shared by all
    three procedures when *n2* is shifted by ``i`` lines.
    """
    num_sets = config.num_sets
    masks1 = {
        p.name: _set_mask(p.offset, program.size_of(p.name), config)
        for p in n1.placements
    }
    masks2 = {
        p.name: _set_mask(p.offset, program.size_of(p.name), config)
        for p in n2.placements
    }

    first_side: list[np.ndarray] = []  # stays in the cache frame (n1)
    second_side: list[np.ndarray] = []  # shifted with n2
    weights: list[float] = []

    def collect(
        p_masks: dict[str, np.ndarray],
        pair_masks: dict[str, np.ndarray],
        p_is_n1: bool,
    ) -> None:
        for p_name, p_mask in p_masks.items():
            for pair, count in pair_db.pairs_for(p_name).items():
                members = tuple(pair)
                if len(members) != 2:
                    continue
                r, s = members
                mask_r = pair_masks.get(r)
                mask_s = pair_masks.get(s)
                if mask_r is None or mask_s is None:
                    continue
                common = mask_r * mask_s
                if not common.any():
                    continue
                if p_is_n1:
                    first_side.append(p_mask)
                    second_side.append(common)
                else:
                    first_side.append(common)
                    second_side.append(p_mask)
                weights.append(float(count))

    collect(masks1, masks2, p_is_n1=True)
    collect(masks2, masks1, p_is_n1=False)

    if not weights:
        return np.zeros(num_sets)

    first = np.asarray(first_side)
    second = np.asarray(second_side)
    weight_column = np.asarray(weights)[:, None]
    spectrum = (
        np.fft.rfft(first, axis=1)
        * np.conj(np.fft.rfft(second, axis=1))
        * weight_column
    ).sum(axis=0)
    costs = np.fft.irfft(spectrum, n=num_sets)
    return np.maximum(costs, 0.0)


def merge_nodes_sa(
    n1: MergeNode,
    n2: MergeNode,
    pair_db: PairDatabase,
    program: Program,
    config: CacheConfig,
    weights: ChunkWeights | None = None,
) -> MergeNode:
    """Merge two nodes at the best set-relative alignment (Section 6).

    The primary cost is the pair-database association count.  The pair
    database is sparse at procedure granularity, so many offsets tie at
    (near) zero primary cost; following the paper's remark that other
    heuristics "were found to be important for procedure placement in
    set-associative caches", ties on the primary cost are broken by the
    direct-mapped chunk-TRG cost when the placement's *weights* index
    is supplied — a block that would displace ``p`` alone is still the
    more likely half of a displacing pair.
    """
    if set(n1.names) & set(n2.names):
        raise PlacementError("nodes being merged share a procedure")
    costs = sa_offset_costs(n1, n2, pair_db, program, config)
    if weights is None:
        offset = best_offset(costs)
    else:
        # Fold line-offset costs onto set alignments: line offsets
        # i, i + num_sets, ... are the same set alignment.
        dm_costs = (
            weights.offset_costs(n1, n2)
            .reshape(config.associativity, config.num_sets)
            .sum(axis=0)
        )
        tied = tied_offsets(costs)
        # An exact argmin over FFT output: dm_costs must stay bit-exact.
        offset = int(tied[int(np.argmin(dm_costs[tied]))])
    return n1.combined_with(n2.shifted(offset, config.num_lines))


def sa_offset_costs_reference(
    n1: MergeNode,
    n2: MergeNode,
    pair_db: PairDatabase,
    program: Program,
    config: CacheConfig,
) -> np.ndarray:
    """Direct-loop evaluation of :func:`sa_offset_costs` (for tests)."""
    num_sets = config.num_sets
    costs = np.zeros(num_sets)
    masks1 = {
        p.name: _set_mask(p.offset, program.size_of(p.name), config)
        for p in n1.placements
    }
    masks2 = {
        p.name: _set_mask(p.offset, program.size_of(p.name), config)
        for p in n2.placements
    }
    for i in range(num_sets):
        shifted2 = {
            name: np.roll(mask, i) for name, mask in masks2.items()
        }
        total = 0.0
        for p_name, p_mask in masks1.items():
            for pair, count in pair_db.pairs_for(p_name).items():
                members = tuple(pair)
                if len(members) != 2:
                    continue
                r, s = members
                if r in shifted2 and s in shifted2:
                    overlap = (
                        p_mask * shifted2[r] * shifted2[s]
                    ).sum()
                    total += count * overlap
        for p_name, p_mask in masks2.items():
            shifted_p = np.roll(p_mask, i)
            for pair, count in pair_db.pairs_for(p_name).items():
                members = tuple(pair)
                if len(members) != 2:
                    continue
                r, s = members
                if r in masks1 and s in masks1:
                    overlap = (
                        shifted_p * masks1[r] * masks1[s]
                    ).sum()
                    total += count * overlap
        costs[i] = total
    return costs


class GBSCSetAssociativePlacement:
    """GBSC with the Section 6 pair-database cost (2-way and beyond)."""

    name = "GBSC-SA"

    def place(self, context: PlacementContext) -> Layout:
        trgs = context.require_trgs()
        pair_db = context.require_pair_db()
        program = context.program
        config = context.config
        popular = context.popular
        if not popular:
            popular = tuple(sorted(trgs.select.nodes))

        weights = ChunkWeights(
            trgs.place, program, config, popular, trgs.chunk_size
        )

        def merge(n1: MergeNode, n2: MergeNode) -> MergeNode:
            return merge_nodes_sa(
                n1, n2, pair_db, program, config, weights=weights
            )

        nodes = gbsc_nodes(
            trgs.select,
            trgs.place,
            popular,
            program,
            config,
            trgs.chunk_size,
            merge=merge,
        )
        popular_set = set(popular)
        unpopular = [n for n in program.names if n not in popular_set]
        result = linearize(nodes, program, config, unpopular)
        return result.layout
