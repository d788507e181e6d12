"""Tests for the multi-level cache hierarchy model."""

import random

import numpy as np
import pytest

from repro.cache.config import CacheConfig
from repro.cache.direct import DirectMappedCache
from repro.cache.fast import direct_mapped_miss_flags
from repro.cache.hierarchy import simulate_hierarchy
from repro.cache.linetrace import line_stream
from repro.cache.setassoc import SetAssociativeCache, lru_miss_flags
from repro.cache.simulator import miss_flags
from repro.errors import ConfigError
from repro.program.layout import Layout
from repro.program.program import Program
from tests.conftest import full_trace


@pytest.fixture
def l1() -> CacheConfig:
    return CacheConfig(size=128, line_size=32)  # 4 lines


@pytest.fixture
def l2() -> CacheConfig:
    return CacheConfig(size=512, line_size=32, associativity=2)


class TestMissFlags:
    def test_flags_match_stateful_model_direct(self, l1):
        lines = np.asarray([0, 4, 0, 1, 4, 4, 0], dtype=np.int64)
        flags = direct_mapped_miss_flags(lines, l1)
        cache = DirectMappedCache(l1)
        expected = [cache.touch(int(line)) for line in lines]
        assert flags.tolist() == expected

    def test_flags_match_stateful_model_lru(self, l2):
        lines = np.asarray([0, 8, 16, 0, 8, 16, 0], dtype=np.int64)
        flags = lru_miss_flags(lines, l2)
        cache = SetAssociativeCache(l2)
        expected = [cache.touch(int(line)) for line in lines]
        assert flags.tolist() == expected

    def test_empty_stream(self, l1):
        assert len(direct_mapped_miss_flags(np.empty(0, int), l1)) == 0

    def test_dispatch(self, l1, l2):
        lines = np.asarray([0, 1, 0], dtype=np.int64)
        assert miss_flags(lines, l1).tolist() == [True, True, False]
        assert miss_flags(lines, l2).tolist() == [True, True, False]

    def test_direct_flags_reject_assoc(self, l2):
        with pytest.raises(ConfigError):
            direct_mapped_miss_flags(np.asarray([0]), l2)


class TestHierarchy:
    @pytest.fixture
    def setup(self):
        program = Program.from_sizes({"a": 128, "b": 128, "c": 128})
        layout = Layout.default(program)
        trace = full_trace(
            program, ["a", "b", "c", "a", "b", "c", "a"]
        )
        return program, layout, trace

    def test_l2_sees_only_l1_misses(self, setup, l1, l2):
        _, layout, trace = setup
        l1_stats, l2_stats = simulate_hierarchy(layout, trace, [l1, l2])
        assert l2_stats.line_accesses == l1_stats.misses
        assert l2_stats.misses <= l1_stats.misses

    def test_l2_filters_misses(self, setup, l1, l2):
        """The working set exceeds L1 (384 B > 128 B) but fits L2, so
        after the cold pass L2 absorbs the L1 conflict misses."""
        _, layout, trace = setup
        _, l2_stats = simulate_hierarchy(layout, trace, [l1, l2])
        # Only the 12 cold lines miss in L2; repeats hit.
        assert l2_stats.misses == 12

    def test_single_level_matches_simulate(self, setup, l1):
        from repro.cache.simulator import simulate

        _, layout, trace = setup
        (stats,) = simulate_hierarchy(layout, trace, [l1])
        assert stats == simulate(layout, trace, l1)

    def test_fetch_count_constant_across_levels(self, setup, l1, l2):
        _, layout, trace = setup
        l1_stats, l2_stats = simulate_hierarchy(layout, trace, [l1, l2])
        assert l1_stats.fetches == l2_stats.fetches

    def test_three_levels(self, setup, l1, l2):
        _, layout, trace = setup
        l3 = CacheConfig(size=4096, line_size=32, associativity=4)
        stats = simulate_hierarchy(layout, trace, [l1, l2, l3])
        assert len(stats) == 3
        assert (
            stats[2].misses <= stats[1].misses <= stats[0].misses
        )

    @pytest.mark.parametrize("l2_ways", [2, 4])
    def test_matches_chain_of_scalar_models(self, l2_ways):
        """Each level equals its scalar model fed the previous level's
        misses: the 2-way kernel at L2 and the LRU loop at L2 or L3."""
        rng = random.Random(l2_ways)
        sizes = {f"p{i}": rng.randrange(16, 400) for i in range(24)}
        program = Program.from_sizes(sizes)
        layout = Layout.default(program)
        trace = full_trace(
            program, [rng.choice(list(sizes)) for _ in range(600)]
        )
        levels = [
            CacheConfig(size=256, line_size=32),
            CacheConfig(size=1024, line_size=32, associativity=l2_ways),
            CacheConfig(size=2048, line_size=32, associativity=6 - l2_ways),
        ]
        references = [
            DirectMappedCache(levels[0]),
            SetAssociativeCache(levels[1]),
            SetAssociativeCache(levels[2]),
        ]
        lines = line_stream(layout, trace, levels[0]).lines.tolist()
        expected = []
        for cache in references:
            missed = [line for line in lines if cache.touch(line)]
            expected.append((len(lines), len(missed)))
            lines = missed
        stats = simulate_hierarchy(layout, trace, levels)
        assert [(s.line_accesses, s.misses) for s in stats] == expected
        assert stats[1].misses < stats[1].line_accesses

    def test_mismatched_line_sizes_rejected(self, setup, l1):
        _, layout, trace = setup
        with pytest.raises(ConfigError):
            simulate_hierarchy(
                layout,
                trace,
                [l1, CacheConfig(size=512, line_size=64)],
            )

    def test_empty_levels_rejected(self, setup):
        _, layout, trace = setup
        with pytest.raises(ConfigError):
            simulate_hierarchy(layout, trace, [])

    def test_placement_also_helps_l2(self):
        """A layout that removes L1 conflicts shrinks the L2 reference
        stream — the cross-layer coupling §8 points at."""
        program = Program.from_sizes({"a": 128, "b": 128})
        conflicting = Layout(program, {"a": 0, "b": 128})
        trace = full_trace(program, ["a", "b"] * 20)
        l1 = CacheConfig(size=128, line_size=32)
        l2 = CacheConfig(size=1024, line_size=32, associativity=2)
        # Both procedures alias fully in the 128-byte L1 either way
        # (each is a full cache); separate them with a bigger L1.
        big_l1 = CacheConfig(size=256, line_size=32)
        separated = Layout(program, {"a": 0, "b": 128})
        aliased = Layout(program, {"a": 0, "b": 256})
        good = simulate_hierarchy(separated, trace, [big_l1, l2])
        bad = simulate_hierarchy(aliased, trace, [big_l1, l2])
        assert good[0].misses < bad[0].misses
        assert good[1].line_accesses < bad[1].line_accesses
