"""Set-associative LRU instruction-cache model (Section 6 substrate).

A straightforward stateful model: each set holds up to ``associativity``
memory lines in most-recently-used-first order.  With associativity 1
it degenerates to the direct-mapped model, which the test suite
verifies against both other implementations.

:func:`lru_miss_flags` is the model's per-access form, the one
:mod:`repro.cache.simulator` runs for three or more ways.  The class
is the test reference for the vectorized 2-way kernels,
:func:`repro.cache.fast.two_way_lru_miss_flags` and
:func:`repro.cache.fast.count_two_way_lru_misses`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.cache.config import CacheConfig
from repro.cache.stats import MissStats


class SetAssociativeCache:
    """LRU set-associative cache over memory-line indices."""

    def __init__(self, config: CacheConfig) -> None:
        self._config = config
        self._ways = config.associativity
        self._sets: list[list[int]] = [[] for _ in range(config.num_sets)]
        self.misses = 0
        self.accesses = 0

    @property
    def config(self) -> CacheConfig:
        return self._config

    def touch(self, memory_line: int) -> bool:
        """Access one memory line; return True on a miss."""
        ways = self._sets[memory_line % self._config.num_sets]
        self.accesses += 1
        try:
            position = ways.index(memory_line)
        except ValueError:
            self.misses += 1
            ways.insert(0, memory_line)
            if len(ways) > self._ways:
                ways.pop()
            return True
        if position:
            del ways[position]
            ways.insert(0, memory_line)
        return False

    def run(
        self, lines: Iterable[int], fetches: int | None = None
    ) -> MissStats:
        """Replay a line stream; *fetches* defaults to one per touch."""
        for line in lines:
            self.touch(int(line))
        return MissStats(
            fetches=self.accesses if fetches is None else fetches,
            line_accesses=self.accesses,
            misses=self.misses,
        )

    def flush(self) -> None:
        """Invalidate every set (statistics are preserved)."""
        self._sets = [[] for _ in range(self._config.num_sets)]

    def contents(self) -> dict[int, tuple[int, ...]]:
        """Resident lines per non-empty set, MRU first."""
        return {
            index: tuple(ways)
            for index, ways in enumerate(self._sets)
            if ways
        }


def lru_miss_flags(
    lines: Sequence[int] | np.ndarray, config: CacheConfig
) -> np.ndarray:
    """Per-access miss booleans, in stream order, through the LRU model."""
    cache = SetAssociativeCache(config)
    return np.fromiter(
        map(cache.touch, np.asarray(lines).tolist()),
        dtype=bool,
        count=len(lines),
    )
