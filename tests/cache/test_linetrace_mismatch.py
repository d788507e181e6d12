"""Cross-object consistency checks for line-stream derivation."""

import pytest

from repro.cache.config import CacheConfig
from repro.cache.linetrace import line_stream
from repro.errors import LayoutError
from repro.program.layout import Layout
from repro.program.program import Program
from repro.trace.events import TraceEvent
from repro.trace.trace import Trace


def test_program_mismatch_rejected():
    program_a = Program.from_sizes({"a": 64})
    program_b = Program.from_sizes({"a": 64, "b": 64})
    layout = Layout.default(program_b)
    trace = Trace(program_a, [TraceEvent.full("a", 64)])
    with pytest.raises(LayoutError):
        line_stream(layout, trace, CacheConfig(size=128, line_size=32))


def test_equal_value_programs_accepted():
    """Two distinct Program objects with identical contents are the
    same program for simulation purposes."""
    program_a = Program.from_sizes({"a": 64})
    program_b = Program.from_sizes({"a": 64})
    layout = Layout.default(program_b)
    trace = Trace(program_a, [TraceEvent.full("a", 64)])
    stream = line_stream(layout, trace, CacheConfig(size=128, line_size=32))
    assert list(stream.lines) == [0, 1]
