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

Two evaluators of the cost vector exist:

* :meth:`PairIndex.offset_costs` — the one :func:`merge_nodes_sa`
  runs: batched cross-correlations of set masks via real FFTs, over a
  pair index built once per placement (:func:`sa_offset_costs` builds
  one for a single pair);
* :func:`sa_offset_costs_reference` — a loop over every offset with
  rolled masks, its scalar twin.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import obs
from repro.cache.config import CacheConfig
from repro.core import gbsc
from repro.core.linearize import linearize
from repro.core.merge import (
    ChunkWeights,
    MergeNode,
    _run_positions,
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


class PairIndex:
    """One placement's pair database as arrays (Section 6).

    Built once per placement from ``D(p, {r, s})``, the program, the
    cache and the procedures that take part, it holds everything the
    Section 6 cost needs:

    * one id per procedure, in sorted name order;
    * per procedure, its set mask at offset 0, a float 0/1 row by
      :func:`_set_mask`'s rule;
    * the database in CSR form: procedure ``p`` owns a run of
      ``(r id, s id, count)`` rows in the order
      ``pair_db.pairs_for(p)`` iterates them.  One-member pairs and
      pairs with a member outside the index are dropped, since
      neither can match a merge.

    A node's masks are its procedures' base masks rotated by their
    offsets, and a merge no longer walks the database.
    """

    def __init__(
        self,
        pair_db: PairDatabase,
        program: Program,
        config: CacheConfig,
        names: Sequence[str],
    ) -> None:
        self.num_sets = config.num_sets
        self.num_lines = config.num_lines
        ordered = sorted(set(names))
        self._id = {name: k for k, name in enumerate(ordered)}
        sizes = np.asarray(
            [program.size_of(name) for name in ordered], dtype=np.int64
        )
        lines_spanned = -(-sizes // config.line_size)
        self._masks = (
            np.arange(self.num_sets) < lines_spanned[:, None]
        ).astype(float)

        bounds = [0]
        members_r: list[int] = []
        members_s: list[int] = []
        counts: list[float] = []
        for name in ordered:
            for pair, count in pair_db.pairs_for(name).items():
                members = tuple(pair)
                if len(members) != 2:
                    continue
                r = self._id.get(members[0])
                s = self._id.get(members[1])
                if r is None or s is None:
                    continue
                members_r.append(r)
                members_s.append(s)
                counts.append(float(count))
            bounds.append(len(counts))
        self._bounds = np.asarray(bounds, dtype=np.int64)
        self._r = np.asarray(members_r, dtype=np.int64)
        self._s = np.asarray(members_s, dtype=np.int64)
        self._counts = np.asarray(counts, dtype=float)

    def masks(self, node: MergeNode) -> tuple[np.ndarray, np.ndarray]:
        """The node's procedure ids, in placement order, and their set
        masks at their offsets (one row each, as :func:`_set_mask`)."""
        try:
            ids = np.asarray(
                [self._id[p.name] for p in node.placements], dtype=np.int64
            )
        except KeyError as error:
            raise PlacementError(
                f"procedure {error.args[0]!r} is not in this pair index"
            ) from None
        offsets = np.asarray([p.offset for p in node.placements])
        # Row k at offset o holds base[(j - o) mod num_sets] in set j.
        columns = (np.arange(self.num_sets) - offsets[:, None]) % self.num_sets
        return ids, np.take_along_axis(self._masks[ids], columns, axis=1)

    def _side(
        self,
        ids: np.ndarray,
        masks: np.ndarray,
        other_ids: np.ndarray,
        other_masks: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(p mask, r·s mask, count)`` rows of every recorded pair with
        ``p`` in one node and ``r``, ``s`` both in the other, dropping
        rows whose pair shares no set."""
        starts = self._bounds[ids]
        lengths = self._bounds[ids + 1] - starts
        rows = np.repeat(starts, lengths) + _run_positions(lengths)
        owner = np.repeat(np.arange(len(ids)), lengths)
        position = np.full(len(self._id), -1)
        position[other_ids] = np.arange(len(other_ids))
        r = position[self._r[rows]]
        s = position[self._s[rows]]
        kept = (r >= 0) & (s >= 0)
        common = other_masks[r[kept]] * other_masks[s[kept]]
        linked = common.any(axis=1)
        return (
            masks[owner[kept][linked]],
            common[linked],
            self._counts[rows[kept][linked]],
        )

    def rows(
        self, n1: MergeNode, n2: MergeNode
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The cost's input rows: masks that stay in *n1*'s frame, masks
        that shift with *n2*, and the association counts.

        One row per recorded ``D(p, {r, s})`` with ``p`` in one node,
        ``r`` and ``s`` both in the other and sharing a set: the ``p``
        mask on its node's side, ``mask_r * mask_s`` on the other.  The
        rows are the pairs of *n1*'s procedures and then of *n2*'s,
        each node in placement order and each procedure's pairs in
        ``pair_db.pairs_for`` order.  That exact order keeps the costs
        bit-identical however large the index, which the tie-break of
        :func:`merge_nodes_sa` relies on.
        """
        ids1, masks1 = self.masks(n1)
        ids2, masks2 = self.masks(n2)
        p1, pairs2, counts1 = self._side(ids1, masks1, ids2, masks2)
        p2, pairs1, counts2 = self._side(ids2, masks2, ids1, masks1)
        return (
            np.concatenate([p1, pairs1]),
            np.concatenate([pairs2, p2]),
            np.concatenate([counts1, counts2]),
        )

    def offset_costs(self, n1: MergeNode, n2: MergeNode) -> np.ndarray:
        """Cost of each relative *set* offset of node *n2* against *n1*.

        ``costs[i]`` sums, over every recorded association
        ``D(p, {r, s})`` with ``p`` in one node and ``{r, s}`` both in
        the other, the association count weighted by the number of
        sets shared by all three procedures when *n2* is shifted by
        ``i`` lines: a weighted circular cross-correlation of the
        :meth:`rows`, computed with real FFTs of length ``num_sets``.
        """
        first, second, counts = self.rows(n1, n2)
        if len(counts) == 0:
            return np.zeros(self.num_sets)
        spectrum = (
            np.fft.rfft(first, axis=1)
            * np.conj(np.fft.rfft(second, axis=1))
            * counts[:, None]
        ).sum(axis=0)
        costs = np.fft.irfft(spectrum, n=self.num_sets)
        return np.maximum(costs, 0.0)


@fast_path(scalar="repro.core.setassoc.sa_offset_costs_reference")
def sa_offset_costs(
    n1: MergeNode,
    n2: MergeNode,
    pair_db: PairDatabase,
    program: Program,
    config: CacheConfig,
) -> np.ndarray:
    """Batched evaluation of the Section 6 cost vector for one pair.

    Builds a :class:`PairIndex` over the two nodes' procedures and runs
    its cost; a placement builds one index and reuses it instead.
    """
    pairs = PairIndex(pair_db, program, config, n1.names + n2.names)
    return pairs.offset_costs(n1, n2)


def merge_nodes_sa(
    n1: MergeNode,
    n2: MergeNode,
    pairs: PairIndex,
    weights: ChunkWeights | None = None,
) -> MergeNode:
    """Merge two nodes at the best set-relative alignment (Section 6).

    *pairs* is the placement's :class:`PairIndex`.  The primary cost is
    the pair-database association count.  The pair database is sparse
    at procedure granularity, so many offsets tie at (near) zero
    primary cost; following the paper's remark that other heuristics
    "were found to be important for procedure placement in
    set-associative caches", ties on the primary cost are broken by the
    direct-mapped chunk-TRG cost when the placement's *weights* index
    is supplied — a block that would displace ``p`` alone is still the
    more likely half of a displacing pair.
    """
    if set(n1.names) & set(n2.names):
        raise PlacementError("nodes being merged share a procedure")
    costs = pairs.offset_costs(n1, n2)
    obs.inc("gbsc.merge.merges")
    obs.inc("gbsc.merge.offsets_evaluated", pairs.num_sets)
    if weights is None:
        return n1.combined_with(
            n2.shifted(best_offset(costs), pairs.num_lines)
        )
    # Fold line-offset costs onto set alignments: line offsets
    # i, i + num_sets, ... are the same set alignment.
    dm_costs = (
        weights.offset_costs(n1, n2).reshape(-1, pairs.num_sets).sum(axis=0)
    )
    tied = tied_offsets(costs)
    # An exact argmin over FFT output: dm_costs must stay bit-exact.
    offset = int(tied[int(np.argmin(dm_costs[tied]))])
    return weights.merged(n1, n2, offset)


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
        pairs = PairIndex(pair_db, program, config, popular)

        def merge(n1: MergeNode, n2: MergeNode) -> MergeNode:
            return merge_nodes_sa(n1, n2, pairs, weights)

        # Through the module, so a wrapper on gbsc.gbsc_nodes (the
        # benchmark's span tracer) sees this call too.
        nodes = gbsc.gbsc_nodes(
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
