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


def _csr_bounds(keys: np.ndarray, size: int) -> np.ndarray:
    """CSR bounds of rows sorted by *keys* in ``[0, size)``."""
    bounds = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=size), out=bounds[1:])
    return bounds


def _gather(bounds: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Every row number of the CSR runs of *keys*, run by run."""
    starts = bounds[keys]
    lengths = bounds[keys + 1] - starts
    return np.repeat(starts, lengths) + _run_positions(lengths)


class PairIndex:
    """One placement's pair database as arrays (Section 6).

    Built once per placement from the database's
    :class:`~repro.profiles.pairdb.PairRows`, the program, the cache
    and the procedures that take part, it holds everything the
    Section 6 cost needs:

    * one id per procedure, in sorted name order;
    * per procedure, its set mask at offset 0, a float 0/1 row by
      :func:`_set_mask`'s rule;
    * the database's ``(p, r, s, count)`` rows as ids, ``r < s``, in
      CSR form keyed by ``p`` (a stable sort of the database's rows)
      and a second CSR keyed by the lower member ``r``.  One-member
      pairs and rows with a member outside the index are dropped,
      since neither can match a merge.

    A node's masks are its procedures' base masks rotated by their
    offsets, and a merge reads only the rows it can score.
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

        rows = pair_db.rows()
        position = np.fromiter(
            (self._id.get(node, -1) for node in rows.nodes),
            dtype=np.int64,
            count=len(rows.nodes),
        )
        p = position[rows.block]
        a = position[rows.r]
        b = position[rows.s]
        kept = np.flatnonzero((p >= 0) & (a >= 0) & (b >= 0) & (a != b))
        kept = kept[np.argsort(p[kept], kind="stable")]
        self._p = p[kept]
        self._r = np.minimum(a, b)[kept]
        self._s = np.maximum(a, b)[kept]
        self._counts = rows.count[kept].astype(float)
        self._by_p = _csr_bounds(self._p, len(ordered))
        self._r_order = np.argsort(self._r, kind="stable")
        self._by_r = _csr_bounds(self._r, len(ordered))

    def _ids(self, node: MergeNode) -> np.ndarray:
        """The node's procedure ids, in placement order."""
        try:
            return np.asarray(
                [self._id[p.name] for p in node.placements], dtype=np.int64
            )
        except KeyError as error:
            raise PlacementError(
                f"procedure {error.args[0]!r} is not in this pair index"
            ) from None

    def _rotated(self, ids: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """The base masks of *ids*, each rotated by its offset."""
        # Row k at offset o holds base[(j - o) mod num_sets] in set j.
        columns = (np.arange(self.num_sets) - offsets[:, None]) % self.num_sets
        return self._masks[ids[:, None], columns]

    def masks(self, node: MergeNode) -> tuple[np.ndarray, np.ndarray]:
        """The node's procedure ids, in placement order, and their set
        masks at their offsets (one row each, as :func:`_set_mask`)."""
        ids = self._ids(node)
        offsets = np.asarray([p.offset for p in node.placements])
        return ids, self._rotated(ids, offsets)

    def _side(self, ids: np.ndarray, other_ids: np.ndarray) -> np.ndarray:
        """Row numbers of every recorded pair with ``p`` among *ids* and
        ``r``, ``s`` both among *other_ids*.

        The rows come through ``p`` when *ids* is the smaller side and
        through the lower member ``r`` otherwise, so a merge visits at
        most the rows of its smaller node's procedures.
        """
        if len(other_ids) < 2:
            return np.empty(0, dtype=np.int64)
        other = np.zeros(len(self._id), dtype=bool)
        other[other_ids] = True
        if len(ids) <= len(other_ids):
            rows = _gather(self._by_p, ids)
            keep = other[self._r[rows]]
        else:
            rows = self._r_order[_gather(self._by_r, other_ids)]
            own = np.zeros(len(self._id), dtype=bool)
            own[ids] = True
            keep = own[self._p[rows]]
        keep &= other[self._s[rows]]
        return rows[keep]

    def offset_costs(self, n1: MergeNode, n2: MergeNode) -> np.ndarray:
        """Cost of each relative *set* offset of node *n2* against *n1*.

        ``costs[i]`` sums, over every recorded association
        ``D(p, {r, s})`` with ``p`` in one node and ``{r, s}`` both in
        the other, the association count weighted by the number of
        sets shared by all three procedures when *n2* is shifted by
        ``i`` lines: a weighted circular cross-correlation of the ``p``
        mask with ``mask_r * mask_s``, computed with real FFTs of
        length ``num_sets``.  Every cost is an integer, so the FFT
        output is rounded to it: the result does not depend on the
        order the rows are summed in.
        """
        ids1 = self._ids(n1)
        ids2 = self._ids(n2)
        rows1 = self._side(ids1, ids2)
        rows2 = self._side(ids2, ids1)
        rows = np.concatenate([rows1, rows2])
        if len(rows) == 0:
            return np.zeros(self.num_sets)
        offsets = np.zeros(len(self._id), dtype=np.int64)
        offsets[ids1] = [p.offset for p in n1.placements]
        offsets[ids2] = [p.offset for p in n2.placements]
        p = self._p[rows]
        r = self._r[rows]
        s = self._s[rows]
        named = np.unique(np.concatenate([p, r, s]))
        slot = np.zeros(len(self._id), dtype=np.int64)
        slot[named] = np.arange(len(named))
        masks = self._rotated(named, offsets[named])
        p_masks = masks[slot[p]]
        common = masks[slot[r]] * masks[slot[s]]
        # Rows of rows1 keep p in n1's frame; rows of rows2 shift it.
        split = len(rows1)
        first = np.concatenate([p_masks[:split], common[split:]])
        second = np.concatenate([common[:split], p_masks[split:]])
        # A pair that shares no set costs nothing at any offset.
        linked = common.any(axis=1)
        spectrum = (
            np.fft.rfft(first[linked], axis=1)
            * np.conj(np.fft.rfft(second[linked], axis=1))
            * self._counts[rows[linked]][:, None]
        ).sum(axis=0)
        costs = np.fft.irfft(spectrum, n=self.num_sets)
        return np.rint(np.maximum(costs, 0.0))


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
