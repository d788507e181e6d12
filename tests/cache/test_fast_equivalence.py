"""Property tests: the vectorized simulators are exact.

The fast paths must be bit-exact with the reference models for any
stream — the direct-mapped kernel with :class:`DirectMappedCache` on
any direct-mapped geometry, the 2-way kernel with
:class:`SetAssociativeCache` on any 2-way geometry.  This is the
foundation every experiment's miss numbers rest on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.config import MAX_CACHE_LINES, CacheConfig
from repro.cache.direct import DirectMappedCache
from repro.cache.fast import (
    count_direct_mapped_misses,
    direct_mapped_miss_flags,
    two_way_lru_miss_flags,
)
from repro.cache.linetrace import LineStream
from repro.cache.setassoc import SetAssociativeCache
from repro.cache.simulator import simulate_stream
from repro.errors import ConfigError

GEOMETRIES = st.sampled_from(
    [
        CacheConfig(size=64, line_size=32),
        CacheConfig(size=128, line_size=32),
        CacheConfig(size=256, line_size=16),
        CacheConfig(size=1024, line_size=64),
        CacheConfig(size=8192, line_size=32),
        # More than 256 sets: 16-bit set keys.
        CacheConfig(size=16384, line_size=32),
        CacheConfig(size=MAX_CACHE_LINES * 16, line_size=16),
    ]
)


def two_way(num_sets: int) -> CacheConfig:
    return CacheConfig(size=num_sets * 2 * 32, line_size=32, associativity=2)


#: 2-way geometries by set count: two sets, a non-power of two, either
#: side of the 8-bit set-key limit, and a 16-bit one.
TWO_WAY_GEOMETRIES = st.sampled_from(
    [two_way(sets) for sets in (2, 3, 128, 256, 512, 2**15)]
)


def scalar_flags(cache, lines: list[int]) -> list[bool]:
    """Per-access miss flags of a scalar model, one touch at a time."""
    return [cache.touch(line) for line in lines]


@given(
    config=GEOMETRIES,
    lines=st.lists(st.integers(0, 5000), max_size=500),
)
@settings(max_examples=200)
def test_fast_matches_reference(config, lines):
    stream = np.asarray(lines, dtype=np.int64)
    fast = count_direct_mapped_misses(stream, config)
    reference = DirectMappedCache(config).run(lines)
    assert fast == reference.misses
    cache = DirectMappedCache(config)
    assert direct_mapped_miss_flags(stream, config).tolist() == [
        cache.touch(line) for line in lines
    ]


@given(
    config=GEOMETRIES,
    lines=st.lists(st.integers(0, 50), min_size=1, max_size=300),
)
@settings(max_examples=100)
def test_fast_matches_reference_dense_aliasing(config, lines):
    """Small line universe forces heavy set reuse and conflicts."""
    stream = np.asarray(lines, dtype=np.int64)
    fast = count_direct_mapped_misses(stream, config)
    reference = DirectMappedCache(config).run(lines)
    assert fast == reference.misses


def test_empty_stream():
    config = CacheConfig(size=128, line_size=32)
    assert count_direct_mapped_misses(np.empty(0, dtype=np.int64), config) == 0


def test_all_unique_lines_all_miss():
    config = CacheConfig(size=128, line_size=32)
    stream = np.arange(100, dtype=np.int64)
    assert count_direct_mapped_misses(stream, config) == 100


def test_repeated_line_misses_once():
    config = CacheConfig(size=128, line_size=32)
    stream = np.zeros(50, dtype=np.int64)
    assert count_direct_mapped_misses(stream, config) == 1


def test_simulate_direct_mapped_stats():
    config = CacheConfig(size=128, line_size=32)
    stream = LineStream(np.asarray([0, 4, 0, 4], dtype=np.int64), fetches=32)
    stats = simulate_stream(stream, config)
    assert stats.misses == 4
    assert stats.line_accesses == 4
    assert stats.fetches == 32


def test_requires_direct_mapped():
    config = CacheConfig(size=128, line_size=32, associativity=2)
    with pytest.raises(ConfigError):
        count_direct_mapped_misses(np.asarray([0, 1]), config)


@pytest.mark.parametrize("num_sets", [512, MAX_CACHE_LINES])
def test_sixteen_bit_set_keys_alias(num_sets):
    """Sets above index 255 keep their own lines: 44 and 300 do not
    collide, lines one cache apart do."""
    config = CacheConfig(size=num_sets * 32, line_size=32)
    far = 300 + num_sets
    last = num_sets - 1
    lines = [300, 44, 300, far, far, 300, last, last, last + num_sets, last]
    stream = np.asarray(lines, dtype=np.int64)
    expected = [True, True, False, True, False, True, True, False, True, True]
    assert scalar_flags(DirectMappedCache(config), lines) == expected
    assert direct_mapped_miss_flags(stream, config).tolist() == expected


@given(
    config=TWO_WAY_GEOMETRIES,
    lines=st.lists(st.integers(0, 5000), max_size=500),
)
@settings(max_examples=200)
def test_two_way_matches_reference(config, lines):
    stream = np.asarray(lines, dtype=np.int64)
    assert two_way_lru_miss_flags(stream, config).tolist() == scalar_flags(
        SetAssociativeCache(config), lines
    )


@given(
    config=TWO_WAY_GEOMETRIES,
    lines=st.lists(st.integers(0, 50), min_size=1, max_size=300),
)
@settings(max_examples=100)
def test_two_way_matches_reference_dense_aliasing(config, lines):
    """Small line universe forces heavy set reuse and evictions."""
    stream = np.asarray(lines, dtype=np.int64)
    assert two_way_lru_miss_flags(stream, config).tolist() == scalar_flags(
        SetAssociativeCache(config), lines
    )


@given(
    num_sets=st.sampled_from([2, 3, 128, 256, 512, 2**15]),
    laps=st.lists(st.integers(0, 3), min_size=1, max_size=300),
)
@settings(max_examples=100)
def test_two_way_matches_reference_one_set(num_sets, laps):
    """Up to four lines of one set: every eviction order shows up."""
    config = two_way(num_sets)
    lines = [7 + lap * num_sets for lap in laps]
    stream = np.asarray(lines, dtype=np.int64)
    assert two_way_lru_miss_flags(stream, config).tolist() == scalar_flags(
        SetAssociativeCache(config), lines
    )


def test_two_way_second_distinct_line_evicts():
    """One other line between two touches hits; two distinct miss."""
    config = two_way(4)
    lines = [0, 4, 4, 0, 4, 8, 0, 8, 8, 0]
    expected = [True, True, False, False, False, True, True, False,
                False, False]
    assert scalar_flags(SetAssociativeCache(config), lines) == expected
    stream = np.asarray(lines, dtype=np.int64)
    assert two_way_lru_miss_flags(stream, config).tolist() == expected


def test_two_way_empty_stream():
    assert len(two_way_lru_miss_flags(np.empty(0, np.int64), two_way(4))) == 0


@pytest.mark.parametrize("associativity", [1, 4])
def test_two_way_requires_two_ways(associativity):
    config = CacheConfig(size=1024, line_size=32, associativity=associativity)
    with pytest.raises(ConfigError, match="associativity 2"):
        two_way_lru_miss_flags(np.asarray([0, 1]), config)
