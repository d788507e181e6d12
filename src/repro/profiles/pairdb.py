"""The Section 6 pair database ``D(p, {r, s})``.

For set-associative caches a single intervening block is no longer
enough to displace ``p``; with two-way associativity and LRU
replacement, *two distinct* blocks mapping to ``p``'s set must appear
between consecutive references to ``p``.  The paper therefore replaces
``TRG_place`` with a database recording, for every block ``p`` and
unordered pair ``{r, s}``, how often both ``r`` and ``s`` appeared
between consecutive occurrences of ``p``.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Callable, Hashable, Iterable, Mapping

from repro import obs
from repro.profiles.qset import WorkingSet
from repro.profiles.trg import TRGBuildStats

Block = Hashable


class PairDatabase:
    """Counts ``D(p, {r, s})`` keyed by block and unordered pair."""

    def __init__(self) -> None:
        """Create an empty database."""
        self._db: dict[Block, Counter[frozenset]] = {}
        self._blocks: set[Block] = set()

    def add_block(self, block: Block) -> None:
        """Register *block* even if it never accumulates pair counts."""
        self._blocks.add(block)

    def record(self, block: Block, between: list[Block]) -> None:
        """Credit every 2-subset of *between* against *block*."""
        self.add_block(block)
        if len(between) < 2:
            return
        counter = self._db.setdefault(block, Counter())
        for r, s in combinations(between, 2):
            counter[frozenset((r, s))] += 1

    def count(self, block: Block, r: Block, s: Block) -> int:
        """``D(p, {r, s})``; 0 when never observed."""
        counter = self._db.get(block)
        if counter is None:
            return 0
        return counter.get(frozenset((r, s)), 0)

    def set_pair_count(
        self, block: Block, r: Block, s: Block, count: int
    ) -> None:
        """Set ``D(p, {r, s})`` directly."""
        self.set_pairs(block, {frozenset((r, s)): int(count)})

    def set_pairs(self, block: Block, pairs: Mapping[frozenset, int]) -> None:
        """Set ``D(p, pair)`` for every pair of *pairs* (keyed as
        :meth:`pairs_for` returns them), in their order.

        Used by the array builder
        (:func:`~repro.profiles.fast.build_pair_database_fast`) to load
        each block's counted pairs in first-credit order.
        """
        self.add_block(block)
        if pairs:
            dict.update(self._db.setdefault(block, Counter()), pairs)

    def pairs_for(self, block: Block) -> Counter:
        """All recorded pairs for *block* (empty counter when none)."""
        return Counter(self._db.get(block, Counter()))

    @property
    def blocks(self) -> set[Block]:
        """All registered blocks (a defensive copy)."""
        return set(self._blocks)

    def total_records(self) -> int:
        """Total credited pair observations across all blocks."""
        return sum(sum(c.values()) for c in self._db.values())


def build_pair_database(
    refs: Iterable[Block],
    size_of: Callable[[Block], int],
    capacity: int,
) -> tuple[PairDatabase, TRGBuildStats]:
    """One pass over a reference stream, as in Section 3's Q algorithm,
    recording 2-subsets instead of single intervening blocks."""
    database = PairDatabase()
    working_set = WorkingSet(capacity, size_of)
    refs_processed = 0
    q_entry_total = 0
    with obs.span("build_pair_db", q_capacity=capacity):
        for block in refs:
            database.add_block(block)
            between = working_set.reference(block)
            if between is not None:
                database.record(block, between)
            refs_processed += 1
            q_entry_total += len(working_set)
    average = q_entry_total / refs_processed if refs_processed else 0.0
    obs.inc("pairdb.refs_processed", refs_processed)
    obs.inc("pairdb.records", database.total_records())
    return database, TRGBuildStats(
        refs_processed, average, working_set.evictions
    )

