"""Vectorized cache simulation: sorts over set indices.

Both kernels work in *set order*: one stable sort of the access
indices by cache set, which keeps trace order inside each set.  Sets
are independent, so each model reduces to comparisons between an
access and earlier accesses of its own set.

* **Direct-mapped.**  An access hits exactly when the immediately
  preceding access to the same set touched the same memory line: a
  miss is a group head or a line change.
* **2-way LRU.**  An access hits exactly when its line was touched
  earlier in the set and at most one distinct other line of that set
  was touched in between (the LRU stack-distance property, Mattson et
  al. 1970, for one set).  In set order that is "the line changes at
  most twice since its previous occurrence".

The set keys are 8- or 16-bit, so numpy's stable sort is a radix
sort and the whole simulation is ``O(n)`` with no Python-level loop
(the 2-way kernel adds one comparison sort of the lines).  The
results are bit-exact with :class:`repro.cache.direct.DirectMappedCache`
and :class:`repro.cache.setassoc.SetAssociativeCache` (see
``tests/cache/test_fast_equivalence.py``).
"""

from __future__ import annotations

import numpy as np

from repro.cache.config import CacheConfig
from repro.errors import ConfigError
from repro.fastpath import fast_path


def _set_order(lines: np.ndarray, num_sets: int) -> np.ndarray:
    """Access indices stable-sorted by cache set (trace order within a
    set)."""
    # CacheConfig caps a geometry at MAX_CACHE_LINES = 2**16 lines, so
    # a set index always fits uint16; with keys of 16 bits or fewer
    # numpy's stable sort is a radix sort.
    key_dtype = np.uint8 if num_sets <= 256 else np.uint16
    return np.argsort(
        (lines % num_sets).astype(key_dtype), kind="stable"
    )


@fast_path(scalar="repro.cache.direct.DirectMappedCache")
def direct_mapped_miss_flags(
    lines: np.ndarray, config: CacheConfig
) -> np.ndarray:
    """Per-access miss booleans, in stream order."""
    if not config.is_direct_mapped:
        raise ConfigError(
            "the vectorized direct-mapped kernel requires associativity "
            f"1, got {config.associativity}; repro.cache.simulator."
            "miss_flags picks the model for set-associative geometries"
        )
    n = len(lines)
    if n == 0:
        return np.zeros(0, dtype=bool)
    lines = np.asarray(lines, dtype=np.int64)
    order = _set_order(lines, config.num_sets)
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


@fast_path(scalar="repro.cache.setassoc.SetAssociativeCache")
def two_way_lru_miss_flags(
    lines: np.ndarray, config: CacheConfig
) -> np.ndarray:
    """Per-access miss booleans, in stream order, of a 2-way LRU cache."""
    if config.associativity != 2:
        raise ConfigError(
            "the vectorized 2-way LRU kernel requires associativity 2, "
            f"got {config.associativity}; repro.cache.simulator."
            "miss_flags picks the model for other geometries"
        )
    n = len(lines)
    if n == 0:
        return np.zeros(0, dtype=bool)
    lines = np.asarray(lines, dtype=np.int64)
    order = _set_order(lines, config.num_sets)
    sorted_lines = lines[order]
    # changes[i]: line changes in set order up to position i.  Equal
    # lines share a set, so a change also marks every group head.
    # int32 holds the count for any stream under 2**31 accesses.
    changes = np.empty(n, dtype=np.int32)
    changes[0] = 0
    np.cumsum(
        sorted_lines[1:] != sorted_lines[:-1],
        dtype=np.int32,
        out=changes[1:],
    )
    # Group each line's occurrences, still in set (= trace) order.
    by_line = np.argsort(sorted_lines, kind="stable")
    line_runs = sorted_lines[by_line]
    # Between two occurrences of a line, 0 changes means a run of it,
    # 2 means one run of one other line; 3 or more means at least two
    # distinct other lines, the second of which evicted it.
    hit = line_runs[1:] == line_runs[:-1]
    hit &= np.diff(changes[by_line]) <= 2
    miss_sorted = np.ones(n, dtype=bool)
    miss_sorted[by_line[1:]] = ~hit
    flags = np.empty(n, dtype=bool)
    flags[order] = miss_sorted
    return flags
