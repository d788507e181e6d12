"""Property tests: the vectorized simulator is exact.

The fast path must be bit-exact with the reference model for any
stream and any direct-mapped geometry — this is the foundation every
experiment's miss numbers rest on.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.config import CacheConfig
from repro.cache.direct import DirectMappedCache
from repro.cache.fast import count_direct_mapped_misses, direct_mapped_miss_flags
from repro.cache.linetrace import LineStream
from repro.cache.simulator import simulate_stream

GEOMETRIES = st.sampled_from(
    [
        CacheConfig(size=64, line_size=32),
        CacheConfig(size=128, line_size=32),
        CacheConfig(size=256, line_size=16),
        CacheConfig(size=1024, line_size=64),
        CacheConfig(size=8192, line_size=32),
    ]
)


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
    import pytest

    from repro.errors import ConfigError

    config = CacheConfig(size=128, line_size=32, associativity=2)
    with pytest.raises(ConfigError):
        count_direct_mapped_misses(np.asarray([0, 1]), config)
