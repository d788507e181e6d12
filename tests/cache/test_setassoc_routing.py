"""Model routing: one decision picks the cache model from the
geometry, and every model is bit-exact with the scalar references."""

import random

import numpy as np
import pytest

from repro.cache.config import CacheConfig
from repro.cache.direct import DirectMappedCache
from repro.cache.fast import (
    count_direct_mapped_misses,
    count_two_way_lru_misses,
    direct_mapped_miss_flags,
    two_way_lru_miss_flags,
)
from repro.cache.linetrace import LineStream
from repro.cache.setassoc import SetAssociativeCache, lru_miss_flags
from repro.cache.simulator import cache_model, miss_flags, simulate_stream


def random_stream(seed: int, n: int = 400, lines: int = 64) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(lines) for _ in range(n)]


def as_stream(lines: list[int], fetches: int | None = None) -> LineStream:
    return LineStream(
        np.asarray(lines, dtype=np.int64),
        len(lines) if fetches is None else fetches,
    )


@pytest.fixture
def assoc1() -> CacheConfig:
    return CacheConfig(size=256, line_size=32, associativity=1)


@pytest.fixture
def assoc2() -> CacheConfig:
    return CacheConfig(size=256, line_size=32, associativity=2)


class TestSimulateSetAssociative:
    @pytest.mark.parametrize("seed", range(10))
    def test_assoc1_bit_exact_with_scalar_models(self, assoc1, seed):
        stream = random_stream(seed)
        routed = simulate_stream(as_stream(stream), assoc1)
        direct = DirectMappedCache(assoc1).run(stream)
        lru = SetAssociativeCache(assoc1).run(stream)
        assert routed == direct == lru

    def test_assoc1_takes_the_vectorized_path(self, assoc1):
        assert cache_model(assoc1) == (
            "fast", direct_mapped_miss_flags, count_direct_mapped_misses
        )

    def test_assoc2_takes_the_two_way_kernel(self, assoc2):
        assert cache_model(assoc2) == (
            "lru", two_way_lru_miss_flags, count_two_way_lru_misses
        )

    def test_assoc4_keeps_the_lru_loop(self):
        assoc4 = CacheConfig(size=256, line_size=32, associativity=4)
        model = cache_model(assoc4)
        assert (model.engine, model.flags) == ("lru", lru_miss_flags)
        stream = np.asarray(random_stream(4), dtype=np.int32)
        assert model.count(stream, assoc4) == int(
            lru_miss_flags(stream, assoc4).sum()
        )
        assert model.count(stream, assoc4) == (
            SetAssociativeCache(assoc4).run(stream.tolist()).misses
        )

    def test_fetches_default_is_one_per_access(self, assoc1):
        stats = SetAssociativeCache(assoc1).run([0, 0, 1])
        assert stats.fetches == 3
        assert stats.line_accesses == 3

    def test_explicit_fetches_preserved(self, assoc1, assoc2):
        for config in (assoc1, assoc2):
            stats = simulate_stream(as_stream([0, 0, 1], 24), config)
            assert stats.fetches == 24

    def test_empty_stream(self, assoc1):
        stats = simulate_stream(as_stream([]), assoc1)
        assert stats.misses == 0
        assert stats.line_accesses == 0

    def test_assoc2_results_unchanged(self, assoc2):
        stream = random_stream(3)
        routed = simulate_stream(as_stream(stream), assoc2)
        scalar = SetAssociativeCache(assoc2).run(stream)
        assert routed == scalar


class TestLruMissFlags:
    @pytest.mark.parametrize("seed", range(10))
    def test_assoc1_flags_match_scalar_per_access(self, assoc1, seed):
        stream = np.asarray(random_stream(seed), dtype=np.int64)
        flags = lru_miss_flags(stream, assoc1)
        cache = SetAssociativeCache(assoc1)
        scalar = np.asarray(
            [cache.touch(int(line)) for line in stream], dtype=bool
        )
        assert np.array_equal(flags, scalar)

    def test_assoc1_delegates_to_direct_mapped_flags(self, assoc1):
        stream = np.asarray(random_stream(1), dtype=np.int64)
        routed = miss_flags(stream, assoc1)
        assert np.array_equal(routed, direct_mapped_miss_flags(stream, assoc1))
        assert np.array_equal(routed, lru_miss_flags(stream, assoc1))

    def test_assoc2_flags_unchanged(self, assoc2):
        stream = np.asarray(random_stream(2), dtype=np.int64)
        flags = lru_miss_flags(stream, assoc2)
        cache = SetAssociativeCache(assoc2)
        scalar = np.asarray(
            [cache.touch(int(line)) for line in stream], dtype=bool
        )
        assert np.array_equal(flags, scalar)
