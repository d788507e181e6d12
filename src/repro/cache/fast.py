"""Vectorized cache simulation: sorts over set indices.

Every kernel works in *set order*: one stable sort of the accesses by
cache set, which keeps trace order inside each set.  Sets are
independent, so each model reduces to comparisons between an access
and earlier accesses of its own set.

* **Direct-mapped.**  An access hits exactly when the immediately
  preceding access to the same set touched the same memory line: a
  miss is a group head or a line change.
* **2-way LRU.**  An access hits exactly when its line was touched
  earlier in the set and at most one distinct other line of that set
  was touched in between (the LRU stack-distance property, Mattson et
  al. 1970, for one set).  In set order that is "the line changes at
  most twice since its previous occurrence".

Each model has two forms.  The *flag* kernels return one miss boolean
per access, in stream order; :func:`repro.cache.hierarchy
.simulate_hierarchy` calls them (through :func:`repro.cache.simulator
.miss_flags`), because one level's misses are the next level's
stream.  The *count* kernels return only the number of misses and skip
scattering flags back into stream order; :func:`repro.cache.simulator
.simulate_stream`, and so every miss rate the experiments report,
calls them.  Lines keep their integer width: an int32 stream from
:func:`repro.cache.linetrace.line_stream` is never widened.

The sort keys are 8- or 16-bit, so numpy's stable sort is a radix
sort and the whole simulation is ``O(n)`` with no Python-level loop.
The results are bit-exact with :class:`repro.cache.direct
.DirectMappedCache` and :class:`repro.cache.setassoc
.SetAssociativeCache` (see ``tests/cache/test_fast_equivalence.py``).
"""

from __future__ import annotations

import numpy as np

from repro.cache.config import CacheConfig
from repro.errors import ConfigError
from repro.fastpath import fast_path


def _small_key(values: np.ndarray, bound: int) -> np.ndarray:
    """*values* cast to the narrowest unsigned type that holds
    ``[0, bound)``, so that a stable sort of them is a radix sort.  A
    value outside that range wraps modulo the type's width."""
    if bound <= 2**8:
        return values.astype(np.uint8)
    if bound <= 2**16:
        return values.astype(np.uint16)
    return values


def _set_order(
    lines: np.ndarray, num_sets: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(keys, order)``: each access's cache set, as a radix-sortable
    key, and the access indices stable-sorted by it (trace order
    within a set)."""
    # CacheConfig caps a geometry at MAX_CACHE_LINES = 2**16 lines, so
    # a set index always fits uint16.
    if num_sets & (num_sets - 1) == 0:
        # A power of two: the cast keeps the low bits, the mask the
        # set index.
        keys = _small_key(lines, num_sets)
        keys &= num_sets - 1
    else:
        keys = _small_key(lines % num_sets, num_sets)
    return keys, np.argsort(keys, kind="stable")


def _line_changes(sorted_lines: np.ndarray) -> np.ndarray:
    """``sorted_lines[1:] != sorted_lines[:-1]``.  Equal lines share a
    set, so a line change also marks every set-group head."""
    return sorted_lines[1:] != sorted_lines[:-1]


def _require_direct_mapped(config: CacheConfig) -> None:
    if not config.is_direct_mapped:
        raise ConfigError(
            "the vectorized direct-mapped kernel requires associativity "
            f"1, got {config.associativity}; repro.cache.simulator."
            "cache_model picks the model for set-associative geometries"
        )


def _require_two_ways(config: CacheConfig) -> None:
    if config.associativity != 2:
        raise ConfigError(
            "the vectorized 2-way LRU kernel requires associativity 2, "
            f"got {config.associativity}; repro.cache.simulator."
            "cache_model picks the model for other geometries"
        )


@fast_path(scalar="repro.cache.direct.DirectMappedCache")
def direct_mapped_miss_flags(
    lines: np.ndarray, config: CacheConfig
) -> np.ndarray:
    """Per-access miss booleans, in stream order."""
    _require_direct_mapped(config)
    lines = np.asarray(lines)
    n = len(lines)
    if n == 0:
        return np.zeros(0, dtype=bool)
    _, order = _set_order(lines, config.num_sets)
    miss_sorted = np.empty(n, dtype=bool)
    miss_sorted[0] = True
    miss_sorted[1:] = _line_changes(lines[order])
    flags = np.empty(n, dtype=bool)
    flags[order] = miss_sorted
    return flags


#: Accesses per block of the direct-mapped count.  A block's sort and
#: gather stay within a core's L2 cache: on a 6.9 M-line stream and a
#: 2-core x86 host the blocked count took 0.06-0.10 s, one
#: whole-stream sort 0.12-0.14 s.
COUNT_BLOCK = 2**14


@fast_path(scalar="repro.cache.direct.DirectMappedCache")
def count_direct_mapped_misses(
    lines: np.ndarray, config: CacheConfig
) -> int:
    """Number of misses when *lines* is replayed through the cache.

    The stream is counted block by block.  Inside a block, an access
    that is not its set's first misses on a line change in set order;
    a set's first access misses unless the set still holds that line
    from an earlier block.
    """
    _require_direct_mapped(config)
    lines = np.asarray(lines)
    num_sets = config.num_sets
    resident = np.zeros(num_sets, dtype=lines.dtype)
    filled = np.zeros(num_sets, dtype=bool)
    misses = 0
    for start in range(0, len(lines), COUNT_BLOCK):
        block = lines[start:start + COUNT_BLOCK]
        keys, order = _set_order(block, num_sets)
        sorted_lines = block[order]
        sorted_keys = keys[order]
        # Each set's first and last position in the block.
        heads = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
        tails = np.append(heads, len(block)) - 1
        heads = np.insert(heads, 0, 0)
        # Every head but the first is also a line change.
        misses += int(np.count_nonzero(_line_changes(sorted_lines)))
        misses += 1 - len(heads)
        head_sets = sorted_keys[heads]
        misses += int(np.count_nonzero(
            ~filled[head_sets] | (resident[head_sets] != sorted_lines[heads])
        ))
        filled[head_sets] = True
        resident[head_sets] = sorted_lines[tails]
    return misses


def _two_way_hits(
    lines: np.ndarray, config: CacheConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(order, by_line, hit)`` of a non-empty stream.

    *order* is the set order; ``by_line`` groups each line's
    occurrences, in trace order, as positions in set order; and
    ``hit[j]`` says whether the access at set-order position
    ``by_line[j + 1]`` hits.  The access at ``by_line[0]`` misses.
    """
    lines = np.asarray(lines)
    _, order = _set_order(lines, config.num_sets)
    sorted_lines = lines[order]
    n = len(sorted_lines)
    # changes[i]: line changes in set order up to position i.
    # int32 holds the count for any stream under 2**31 accesses.
    changes = np.empty(n, dtype=np.int32)
    changes[0] = 0
    np.cumsum(_line_changes(sorted_lines), dtype=np.int32, out=changes[1:])
    # Group each line's occurrences.  The stream is in set order, so a
    # stable sort by tag alone keeps each (set, tag) line contiguous
    # and in trace order; tags span a program's size in cache laps,
    # which a radix key holds.
    tags = sorted_lines // config.num_sets
    if tags.min() >= 0:
        tags = _small_key(tags, int(tags.max()) + 1)
    by_line = np.argsort(tags, kind="stable")
    line_runs = sorted_lines[by_line]
    # Between two occurrences of a line, 0 changes means a run of it,
    # 2 means one run of one other line; 3 or more means at least two
    # distinct other lines, the second of which evicted it.
    hit = line_runs[1:] == line_runs[:-1]
    hit &= np.diff(changes[by_line]) <= 2
    return order, by_line, hit


@fast_path(scalar="repro.cache.setassoc.SetAssociativeCache")
def two_way_lru_miss_flags(
    lines: np.ndarray, config: CacheConfig
) -> np.ndarray:
    """Per-access miss booleans, in stream order, of a 2-way LRU cache."""
    _require_two_ways(config)
    n = len(lines)
    if n == 0:
        return np.zeros(0, dtype=bool)
    order, by_line, hit = _two_way_hits(lines, config)
    miss_sorted = np.ones(n, dtype=bool)
    miss_sorted[by_line[1:]] = ~hit
    flags = np.empty(n, dtype=bool)
    flags[order] = miss_sorted
    return flags


@fast_path(scalar="repro.cache.setassoc.SetAssociativeCache")
def count_two_way_lru_misses(
    lines: np.ndarray, config: CacheConfig
) -> int:
    """Number of misses when *lines* is replayed through a 2-way LRU
    cache."""
    _require_two_ways(config)
    n = len(lines)
    if n == 0:
        return 0
    _, _, hit = _two_way_hits(lines, config)
    return n - int(np.count_nonzero(hit))
