"""Tests for cache geometry."""

import pytest

from repro.cache.config import (
    MAX_CACHE_LINES,
    PAPER_CACHE,
    PAPER_CACHE_2WAY,
    CacheConfig,
)
from repro.errors import ConfigError


class TestValidation:
    def test_paper_cache(self):
        assert PAPER_CACHE.size == 8192
        assert PAPER_CACHE.line_size == 32
        assert PAPER_CACHE.num_lines == 256
        assert PAPER_CACHE.num_sets == 256
        assert PAPER_CACHE.is_direct_mapped

    def test_two_way_paper_cache(self):
        assert PAPER_CACHE_2WAY.associativity == 2
        assert PAPER_CACHE_2WAY.num_sets == 128
        assert not PAPER_CACHE_2WAY.is_direct_mapped

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"size": 0},
            {"size": -8},
            {"line_size": 0},
            {"associativity": 0},
            {"instruction_size": 0},
            {"size": 100, "line_size": 32},  # not divisible
            {"size": 64, "line_size": 32, "associativity": 3},
            {"line_size": 30, "instruction_size": 4},
        ],
    )
    def test_invalid_geometry_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            CacheConfig(**kwargs)

    def test_line_count_is_bounded(self):
        """A cache larger than MAX_CACHE_LINES lines is rejected before
        anything allocates per-line state."""
        largest = CacheConfig(size=MAX_CACHE_LINES * 32, line_size=32)
        assert largest.num_lines == MAX_CACHE_LINES
        for size in (MAX_CACHE_LINES * 32 + 32, 2**40, 2**70):
            with pytest.raises(ConfigError, match="exceeds the limit"):
                CacheConfig(size=size, line_size=32)

    def test_instructions_per_line(self):
        assert PAPER_CACHE.instructions_per_line == 8


class TestMapping:
    def test_line_of(self):
        assert PAPER_CACHE.line_of(0) == 0
        assert PAPER_CACHE.line_of(31) == 0
        assert PAPER_CACHE.line_of(32) == 1

    def test_line_of_negative_rejected(self):
        with pytest.raises(ConfigError):
            PAPER_CACHE.line_of(-1)

    def test_set_of_wraps(self):
        assert PAPER_CACHE.set_of(8192) == 0
        assert PAPER_CACHE.set_of(8192 + 32) == 1

    def test_set_of_two_way(self):
        # 128 sets: line 128 maps back to set 0.
        assert PAPER_CACHE_2WAY.set_of_line(128) == 0
        assert PAPER_CACHE_2WAY.set_of_line(129) == 1

    def test_set_of_line_negative_rejected(self):
        with pytest.raises(ConfigError):
            PAPER_CACHE.set_of_line(-1)

    def test_lines_spanned(self):
        assert list(PAPER_CACHE.lines_spanned(0, 32)) == [0]
        assert list(PAPER_CACHE.lines_spanned(0, 33)) == [0, 1]
        assert list(PAPER_CACHE.lines_spanned(31, 2)) == [0, 1]
        assert list(PAPER_CACHE.lines_spanned(64, 64)) == [2, 3]

    def test_lines_spanned_empty(self):
        assert list(PAPER_CACHE.lines_spanned(100, 0)) == []

    def test_lines_spanned_negative_rejected(self):
        with pytest.raises(ConfigError):
            PAPER_CACHE.lines_spanned(0, -1)
