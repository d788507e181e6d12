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
from typing import Callable, Hashable, Iterable, NamedTuple

import numpy as np

from repro import obs
from repro.profiles.qset import WorkingSet
from repro.profiles.trg import TRGBuildStats

Block = Hashable


class PairRows(NamedTuple):
    """``D(p, {r, s})`` as arrays over a node table.

    Row ``k`` credits ``count[k]`` to block ``nodes[block[k]]`` and the
    pair ``{nodes[r[k]], nodes[s[k]]}``, with ``r[k] <= s[k]`` (equal
    only for a one-member pair).  The rows are grouped into one run per
    block, runs in table order, and each run lists its block's pairs
    in :meth:`PairDatabase.pairs_for` order (first credit first).
    """

    nodes: tuple[Block, ...]
    block: np.ndarray
    r: np.ndarray
    s: np.ndarray
    count: np.ndarray


class PairDatabase:
    """Counts ``D(p, {r, s})`` keyed by block and unordered pair.

    The database has two equal views: :meth:`rows`, the arrays GBSC-SA
    indexes, and the dict API (:meth:`count`, :meth:`pairs_for`).  One
    built by :meth:`record` derives its rows on the first
    :meth:`rows` read; one adopted from rows
    (:meth:`from_rows`, the array builder's output) builds its
    counters on the first dict-API read.
    """

    def __init__(self) -> None:
        """Create an empty database."""
        self._db: dict[Block, Counter[frozenset]] | None = {}
        self._rows: PairRows | None = None
        self._blocks: set[Block] = set()
        # Every block and pair member, in first-seen order: the table
        # the rows are numbered by.
        self._nodes: dict[Block, None] = {}

    @classmethod
    def from_rows(cls, rows: PairRows) -> "PairDatabase":
        """The database of *rows*, every node of the table a block."""
        database = cls()
        database._db = None
        database._rows = rows
        database._nodes = dict.fromkeys(rows.nodes)
        database._blocks = set(rows.nodes)
        return database

    def _counters(self) -> dict[Block, Counter[frozenset]]:
        """The dict view, built from the rows on first read."""
        if self._db is None:
            rows = self._rows
            nodes = rows.nodes
            db: dict[Block, Counter[frozenset]] = {}
            for p, r, s, count in zip(
                rows.block.tolist(),
                rows.r.tolist(),
                rows.s.tolist(),
                rows.count.tolist(),
            ):
                counter = db.get(p)
                if counter is None:
                    counter = db[p] = Counter()
                counter[frozenset((nodes[r], nodes[s]))] = count
            self._db = {nodes[p]: counter for p, counter in db.items()}
        return self._db

    def add_block(self, block: Block) -> None:
        """Register *block* even if it never accumulates pair counts."""
        if block not in self._blocks:
            self._counters()
            self._rows = None
            self._blocks.add(block)
            self._nodes.setdefault(block)

    def record(self, block: Block, between: list[Block]) -> None:
        """Credit every 2-subset of *between* against *block*."""
        self.add_block(block)
        if len(between) < 2:
            return
        counters = self._counters()
        self._rows = None
        for member in between:
            self._nodes.setdefault(member)
        counter = counters.setdefault(block, Counter())
        for r, s in combinations(between, 2):
            counter[frozenset((r, s))] += 1

    def rows(self) -> PairRows:
        """The database as :class:`PairRows` over the node table."""
        if self._rows is None:
            nodes = tuple(self._nodes)
            index = {node: k for k, node in enumerate(nodes)}
            columns: list[list[int]] = [[], [], [], []]
            block, r, s, counts = columns
            for p in nodes:
                for pair, count in self._db.get(p, {}).items():
                    ids = sorted(index[member] for member in pair)
                    block.append(index[p])
                    r.append(ids[0])
                    s.append(ids[-1])
                    counts.append(count)
            self._rows = PairRows(
                nodes,
                *(np.asarray(column, dtype=np.int64) for column in columns),
            )
        return self._rows

    def count(self, block: Block, r: Block, s: Block) -> int:
        """``D(p, {r, s})``; 0 when never observed."""
        counter = self._counters().get(block)
        if counter is None:
            return 0
        return counter.get(frozenset((r, s)), 0)

    def pairs_for(self, block: Block) -> Counter:
        """All recorded pairs for *block* (empty counter when none)."""
        return Counter(self._counters().get(block, Counter()))

    @property
    def blocks(self) -> set[Block]:
        """All registered blocks (a defensive copy)."""
        return set(self._blocks)

    def total_records(self) -> int:
        """Total credited pair observations across all blocks."""
        if self._db is None:
            return int(self._rows.count.sum())
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

