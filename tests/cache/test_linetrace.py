"""Tests for line-stream derivation from layouts and traces."""

import numpy as np
import pytest

from repro.cache.config import PAPER_CACHE, CacheConfig
from repro.cache.linetrace import MAX_LINE, line_stream
from repro.errors import LayoutError
from repro.program.layout import Layout
from repro.program.program import Program
from repro.trace.events import TraceEvent
from repro.trace.trace import Trace


@pytest.fixture
def config() -> CacheConfig:
    return CacheConfig(size=256, line_size=32)


@pytest.fixture
def program() -> Program:
    return Program.from_sizes({"a": 64, "b": 100})


class TestExpansion:
    def test_full_extent_lines(self, program, config):
        layout = Layout.default(program)
        trace = Trace(program, [TraceEvent.full("a", 64)])
        stream = line_stream(layout, trace, config)
        assert list(stream.lines) == [0, 1]

    def test_offset_extent(self, program, config):
        layout = Layout.default(program)
        # 'b' starts at 64 (line 2); extent [10, 40) within b covers
        # bytes [74, 104) -> lines 2..3.
        trace = Trace(program, [TraceEvent("b", 10, 30)])
        stream = line_stream(layout, trace, config)
        assert list(stream.lines) == [2, 3]

    def test_multiple_events_concatenate(self, program, config):
        layout = Layout.default(program)
        trace = Trace(
            program,
            [TraceEvent.full("a", 64), TraceEvent("b", 0, 10)],
        )
        stream = line_stream(layout, trace, config)
        assert list(stream.lines) == [0, 1, 2]

    def test_unaligned_procedure_start(self, program, config):
        layout = Layout(program, {"a": 30, "b": 200})
        trace = Trace(program, [TraceEvent("a", 0, 4)])
        stream = line_stream(layout, trace, config)
        assert list(stream.lines) == [0, 1]

    def test_empty_trace(self, program, config):
        layout = Layout.default(program)
        trace = Trace(program, [])
        stream = line_stream(layout, trace, config)
        assert len(stream) == 0
        assert stream.fetches == 0


class TestFetchAccounting:
    def test_fetches_from_bytes(self, program, config):
        layout = Layout.default(program)
        trace = Trace(program, [TraceEvent.full("a", 64)])
        stream = line_stream(layout, trace, config)
        assert stream.fetches == 16  # 64 bytes / 4-byte instructions

    def test_tiny_extent_counts_one_fetch(self, program, config):
        layout = Layout.default(program)
        trace = Trace(program, [TraceEvent("a", 0, 2)])
        stream = line_stream(layout, trace, config)
        assert stream.fetches == 1

    def test_fetches_sum_over_events(self, program, config):
        layout = Layout.default(program)
        trace = Trace(
            program, [TraceEvent("a", 0, 8), TraceEvent("b", 0, 12)]
        )
        stream = line_stream(layout, trace, config)
        assert stream.fetches == 2 + 3


class TestLayoutSensitivity:
    def test_different_layouts_different_lines(self, program, config):
        trace = Trace(program, [TraceEvent.full("a", 64)])
        default = line_stream(Layout.default(program), trace, config)
        moved = line_stream(
            Layout(program, {"a": 256, "b": 0}), trace, config
        )
        assert list(default.lines) == [0, 1]
        assert list(moved.lines) == [8, 9]


def int64_lines(layout: Layout, trace: Trace, config: CacheConfig):
    """The stream by the plain int64 formula: each extent's lines from
    its first to its last, concatenated."""
    bases = np.asarray(
        [layout.address_of(name) for name in layout.program.names],
        dtype=np.int64,
    )
    starts = bases[trace.proc_indices] + trace.extent_starts
    first = starts // config.line_size
    last = (starts + trace.extent_lengths - 1) // config.line_size
    return np.concatenate(
        [np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in zip(first, last)]
    )


class TestInt32Stream:
    def test_lines_are_int32(self, program, config):
        trace = Trace(program, [TraceEvent.full("b", 100)])
        stream = line_stream(Layout.default(program), trace, config)
        assert stream.lines.dtype == np.int32
        empty = line_stream(Layout.default(program), Trace(program, []), config)
        assert empty.lines.dtype == np.int32

    @pytest.mark.parametrize("which", ["train", "test"])
    def test_suite_trace_matches_the_int64_formula(self, which):
        from repro.workloads.suite import by_name

        workload = by_name("m88ksim").scaled(0.02)
        trace = workload.trace(which)
        layout = Layout.default(workload.program)
        stream = line_stream(layout, trace, PAPER_CACHE)
        assert stream.lines.dtype == np.int32
        assert np.array_equal(
            stream.lines, int64_lines(layout, trace, PAPER_CACHE)
        )

    def test_highest_line_at_the_limit_is_kept(self, program, config):
        layout = Layout(program, {"a": (MAX_LINE - 1) * 32, "b": 0})
        trace = Trace(program, [TraceEvent.full("a", 64)])
        stream = line_stream(layout, trace, config)
        assert stream.lines.tolist() == [MAX_LINE - 1, MAX_LINE]

    def test_line_above_the_limit_is_rejected(self, program, config):
        layout = Layout(program, {"a": 2**40, "b": 0})
        trace = Trace(program, [TraceEvent("b", 0, 4), TraceEvent("a", 0, 4)])
        with pytest.raises(LayoutError, match=str(MAX_LINE)):
            line_stream(layout, trace, config)

    def test_too_many_line_touches_are_rejected(self, config):
        """Forty 2 GB extents touch 2.7 G lines: every line fits int32,
        the stream's length does not, and nothing is allocated."""
        program = Program.from_sizes({"big": 2**31 - 32})
        trace = Trace(program, [TraceEvent.full("big", 2**31 - 32)] * 40)
        with pytest.raises(LayoutError, match="line touches"):
            line_stream(Layout.default(program), trace, config)
