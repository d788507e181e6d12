"""Reference direct-mapped instruction-cache model.

A deliberately simple, obviously correct implementation: one resident
memory line per cache set, a miss whenever the touched line differs
from the resident one.  The vectorized flag and count kernels in
:mod:`repro.cache.fast` are property-tested against this reference.
"""

from __future__ import annotations

from typing import Iterable

from repro.cache.config import CacheConfig
from repro.cache.stats import MissStats
from repro.errors import ConfigError


class DirectMappedCache:
    """Stateful direct-mapped cache; lines are memory-line indices."""

    def __init__(self, config: CacheConfig) -> None:
        if not config.is_direct_mapped:
            raise ConfigError(
                "DirectMappedCache requires associativity 1, got "
                f"{config.associativity}"
            )
        self._config = config
        self._resident: list[int | None] = [None] * config.num_sets
        self.misses = 0
        self.accesses = 0

    @property
    def config(self) -> CacheConfig:
        return self._config

    def touch(self, memory_line: int) -> bool:
        """Access one memory line; return True on a miss."""
        index = memory_line % self._config.num_sets
        self.accesses += 1
        if self._resident[index] == memory_line:
            return False
        self._resident[index] = memory_line
        self.misses += 1
        return True

    def run(self, lines: Iterable[int], fetches: int | None = None) -> MissStats:
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
        self._resident = [None] * self._config.num_sets

    def contents(self) -> dict[int, int]:
        """Resident memory line per occupied set index."""
        return {
            index: line
            for index, line in enumerate(self._resident)
            if line is not None
        }
