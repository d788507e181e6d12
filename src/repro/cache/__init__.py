"""Instruction-cache substrate: geometry, simulators and statistics."""

from repro.cache.config import PAPER_CACHE, PAPER_CACHE_2WAY, CacheConfig
from repro.cache.direct import DirectMappedCache
from repro.cache.fast import (
    count_direct_mapped_misses,
    count_two_way_lru_misses,
    direct_mapped_miss_flags,
    two_way_lru_miss_flags,
)
from repro.cache.hierarchy import simulate_hierarchy
from repro.cache.linetrace import LineStream, line_stream
from repro.cache.setassoc import SetAssociativeCache, lru_miss_flags
from repro.cache.simulator import miss_flags, simulate, simulate_stream
from repro.cache.stats import MissStats

__all__ = [
    "CacheConfig",
    "DirectMappedCache",
    "LineStream",
    "MissStats",
    "PAPER_CACHE",
    "PAPER_CACHE_2WAY",
    "SetAssociativeCache",
    "count_direct_mapped_misses",
    "count_two_way_lru_misses",
    "direct_mapped_miss_flags",
    "line_stream",
    "lru_miss_flags",
    "miss_flags",
    "simulate",
    "simulate_hierarchy",
    "simulate_stream",
    "two_way_lru_miss_flags",
]
