"""Vectorized direct-mapped cache simulation.

For a direct-mapped cache, an access hits exactly when the immediately
preceding access *to the same set* touched the same memory line.  That
reduces simulation to a grouped previous-occurrence computation, which
numpy does in ``O(n log n)`` without any Python-level loop:

1. stable-sort access indices by set, preserving trace order in groups;
2. within each group, compare each line with its predecessor;
3. a miss is a group head or a line change;
4. scatter the flags back to stream order.

The result is bit-exact with :class:`repro.cache.direct.DirectMappedCache`
(see ``tests/cache/test_fast_equivalence.py``).
"""

from __future__ import annotations

import numpy as np

from repro.cache.config import CacheConfig
from repro.errors import ConfigError
from repro.fastpath import fast_path


@fast_path(scalar="repro.cache.direct.DirectMappedCache")
def direct_mapped_miss_flags(
    lines: np.ndarray, config: CacheConfig
) -> np.ndarray:
    """Per-access miss booleans, in stream order."""
    if not config.is_direct_mapped:
        raise ConfigError(
            "the vectorized direct-mapped kernel requires associativity "
            f"1, got {config.associativity}; repro.cache.simulator."
            "miss_flags picks the LRU model for set-associative geometries"
        )
    n = len(lines)
    if n == 0:
        return np.zeros(0, dtype=bool)
    lines = np.asarray(lines, dtype=np.int64)
    order = np.argsort(lines % config.num_sets, kind="stable")
    sorted_lines = lines[order]
    # Equal lines share a set, so a line change also marks every
    # group head: no separate set comparison is needed.
    miss_sorted = np.empty(n, dtype=bool)
    miss_sorted[0] = True
    miss_sorted[1:] = sorted_lines[1:] != sorted_lines[:-1]
    flags = np.empty(n, dtype=bool)
    flags[order] = miss_sorted
    return flags


@fast_path(scalar="repro.cache.direct.DirectMappedCache")
def count_direct_mapped_misses(
    lines: np.ndarray, config: CacheConfig
) -> int:
    """Number of misses when *lines* is replayed through the cache."""
    return int(direct_mapped_miss_flags(lines, config).sum())
