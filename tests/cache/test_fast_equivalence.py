"""Property tests: the vectorized simulators are exact.

The fast paths must be bit-exact with the reference models for any
stream — the direct-mapped kernels with :class:`DirectMappedCache` on
any direct-mapped geometry, the 2-way kernels with
:class:`SetAssociativeCache` on any 2-way geometry.  Each model has a
flag kernel and a count kernel; the count must equal both the flags'
sum and the scalar model's misses, for int32 and int64 lines alike.
This is the foundation every experiment's miss numbers rest on.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import fast
from repro.cache.config import MAX_CACHE_LINES, CacheConfig
from repro.cache.direct import DirectMappedCache
from repro.cache.fast import (
    _set_order,
    count_direct_mapped_misses,
    count_two_way_lru_misses,
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


def direct_mapped(num_sets: int) -> CacheConfig:
    return CacheConfig(size=num_sets * 32, line_size=32)


#: Direct-mapped set counts: powers of two and not, either side of the
#: 8-bit set-key limit, and 16-bit keys up to the largest geometry.
DM_SET_COUNTS = (1, 2, 3, 128, 255, 256, 257, 300, 512, 2**15 + 3,
                 MAX_CACHE_LINES)

#: 2-way set counts, likewise (a 2-way cache has at most 2**15 sets).
TWO_WAY_SET_COUNTS = (1, 2, 3, 128, 255, 256, 257, 300, 512, 2**15)


@st.composite
def line_streams(draw, set_counts):
    """``(num_sets, lines, dtype)``: a line universe from a few lines
    (heavy aliasing) to several laps of the cache, in int32 or int64."""
    num_sets = draw(st.sampled_from(set_counts))
    universe = draw(st.sampled_from([4, 50, 5000, 4 * num_sets + 7]))
    lines = draw(st.lists(st.integers(0, universe), max_size=400))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    return num_sets, lines, dtype


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
    for kernel in (direct_mapped_miss_flags, count_direct_mapped_misses):
        with pytest.raises(ConfigError, match="associativity 1"):
            kernel(np.asarray([0, 1]), config)


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


@given(drawn=line_streams(DM_SET_COUNTS))
@settings(max_examples=200)
def test_direct_mapped_count_matches_flags_and_scalar(drawn):
    num_sets, lines, dtype = drawn
    config = direct_mapped(num_sets)
    stream = np.asarray(lines, dtype=dtype)
    flags = direct_mapped_miss_flags(stream, config)
    count = count_direct_mapped_misses(stream, config)
    assert count == int(flags.sum()) == (
        DirectMappedCache(config).run(lines).misses
    )
    assert flags.tolist() == scalar_flags(DirectMappedCache(config), lines)


@given(
    drawn=line_streams(DM_SET_COUNTS),
    block=st.sampled_from([1, 2, 3, 7, 64]),
)
@settings(max_examples=200)
def test_direct_mapped_count_carries_sets_across_blocks(drawn, block):
    """Blocks far smaller than the stream: a set's line must carry from
    one block to the next."""
    num_sets, lines, dtype = drawn
    config = direct_mapped(num_sets)
    with mock.patch.object(fast, "COUNT_BLOCK", block):
        count = count_direct_mapped_misses(np.asarray(lines, dtype), config)
    assert count == DirectMappedCache(config).run(lines).misses


@given(drawn=line_streams(TWO_WAY_SET_COUNTS))
@settings(max_examples=200)
def test_two_way_count_matches_flags_and_scalar(drawn):
    num_sets, lines, dtype = drawn
    config = two_way(num_sets)
    stream = np.asarray(lines, dtype=dtype)
    flags = two_way_lru_miss_flags(stream, config)
    count = count_two_way_lru_misses(stream, config)
    assert count == int(flags.sum()) == (
        SetAssociativeCache(config).run(lines).misses
    )
    assert flags.tolist() == scalar_flags(SetAssociativeCache(config), lines)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("num_sets", [2, 3, 256])
def test_counts_at_the_int32_limit(num_sets, dtype):
    """Lines near 2**31 (tags too wide for a radix sort key) and
    negative lines still match the scalar models."""
    top = np.iinfo(np.int32).max
    lines = [top, top - num_sets, top, 0, top - 1, top - num_sets, top,
             -1, -1 - num_sets, -1, 5, top]
    stream = np.asarray(lines, dtype=dtype)
    config = direct_mapped(num_sets)
    assert count_direct_mapped_misses(stream, config) == (
        DirectMappedCache(config).run(lines).misses
    )
    config = two_way(num_sets)
    assert count_two_way_lru_misses(stream, config) == (
        SetAssociativeCache(config).run(lines).misses
    )
    assert two_way_lru_miss_flags(stream, config).tolist() == scalar_flags(
        SetAssociativeCache(config), lines
    )


@pytest.mark.parametrize("num_sets", [3, 256, 300, 512])
@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_set_order_is_stable_with_narrow_keys(num_sets, dtype):
    """Every kernel sorts through one helper: 8- or 16-bit set keys
    (a radix sort), trace order kept within each set."""
    lines = np.asarray([5, num_sets + 5, 1, 5, 2 * num_sets + 1], dtype=dtype)
    keys, order = _set_order(lines, num_sets)
    assert keys.dtype.itemsize <= 2
    assert keys.tolist() == [line % num_sets for line in lines.tolist()]
    assert lines[order].dtype == dtype
    assert lines[order].tolist() == sorted(
        lines.tolist(), key=lambda line: line % num_sets
    )


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
    for dtype in (np.int32, np.int64):
        empty = np.empty(0, dtype)
        assert len(two_way_lru_miss_flags(empty, two_way(4))) == 0
        assert count_two_way_lru_misses(empty, two_way(4)) == 0


@pytest.mark.parametrize("associativity", [1, 4])
def test_two_way_requires_two_ways(associativity):
    config = CacheConfig(size=1024, line_size=32, associativity=associativity)
    for kernel in (two_way_lru_miss_flags, count_two_way_lru_misses):
        with pytest.raises(ConfigError, match="associativity 2"):
            kernel(np.asarray([0, 1]), config)
