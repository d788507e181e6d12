"""Tests for the array-backed trace container."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.program.procedure import ChunkId
from repro.program.program import Program
from repro.trace.events import TraceEvent
from repro.trace.trace import Trace


@pytest.fixture
def program() -> Program:
    return Program.from_sizes({"a": 100, "b": 600, "c": 40})


@pytest.fixture
def trace(program) -> Trace:
    return Trace(
        program,
        [
            TraceEvent.full("a", 100),
            TraceEvent("b", 0, 300),
            TraceEvent("b", 300, 300),
            TraceEvent.full("c", 40),
            TraceEvent.full("a", 100),
        ],
    )


class TestConstruction:
    def test_roundtrip(self, program, trace):
        events = list(trace)
        assert events[0] == TraceEvent("a", 0, 100)
        assert events[2] == TraceEvent("b", 300, 300)
        assert len(trace) == 5

    def test_getitem(self, trace):
        assert trace[3] == TraceEvent("c", 0, 40)

    def test_unknown_procedure_rejected(self, program):
        with pytest.raises(TraceError):
            Trace(program, [TraceEvent("zz", 0, 1)])

    def test_bad_extent_rejected(self, program):
        with pytest.raises(TraceError):
            Trace(program, [TraceEvent("a", 90, 20)])
        with pytest.raises(TraceError):
            Trace(program, [TraceEvent("a", 0, 0)])

    def test_from_arrays(self, program):
        trace = Trace.from_arrays(
            program,
            np.asarray([0, 1]),
            np.asarray([0, 10]),
            np.asarray([50, 20]),
        )
        assert list(trace) == [
            TraceEvent("a", 0, 50),
            TraceEvent("b", 10, 20),
        ]

    def test_from_arrays_validates(self, program):
        with pytest.raises(TraceError):
            Trace.from_arrays(
                program, np.asarray([9]), np.asarray([0]), np.asarray([1])
            )
        with pytest.raises(TraceError):
            Trace.from_arrays(
                program, np.asarray([0]), np.asarray([0]), np.asarray([0])
            )
        with pytest.raises(TraceError):
            Trace.from_arrays(
                program, np.asarray([0, 1]), np.asarray([0]), np.asarray([1])
            )

    def test_from_arrays_checks_before_narrowing(self, program):
        """An index past int32 must not wrap into range, and an extent
        whose end overflows int64 must not wrap below the size."""
        with pytest.raises(TraceError, match="out of range"):
            Trace.from_arrays(
                program, np.asarray([2**32 + 1]), [0], [1]
            )
        with pytest.raises(TraceError, match="outside"):
            Trace.from_arrays(program, [0], [2**62], [2**62])

    def test_array_views_read_only(self, trace):
        with pytest.raises(ValueError):
            trace.proc_indices[0] = 2


class TestDerivedStreams:
    def test_procedure_refs(self, trace):
        assert list(trace.procedure_refs()) == ["a", "b", "b", "c", "a"]

    def test_chunk_refs(self, trace):
        chunks = list(trace.chunk_refs(chunk_size=256))
        assert chunks == [
            ChunkId("a", 0),
            ChunkId("b", 0),
            ChunkId("b", 1),
            ChunkId("b", 1),
            ChunkId("b", 2),
            ChunkId("c", 0),
            ChunkId("a", 0),
        ]


class TestStatistics:
    def test_total_bytes(self, trace):
        assert trace.total_bytes == 100 + 300 + 300 + 40 + 100

    def test_instruction_count(self, trace):
        assert trace.instruction_count(4) == trace.total_bytes // 4

    def test_reference_counts(self, trace):
        assert trace.reference_counts() == {"a": 2, "b": 2, "c": 1}

    def test_byte_counts(self, trace):
        counts = trace.byte_counts()
        assert counts["b"] == 600
        assert counts["a"] == 200

    def test_touched_procedures(self, program):
        trace = Trace(program, [TraceEvent.full("a", 100)])
        assert trace.touched_procedures() == {"a"}

    def test_empty_trace(self, program):
        trace = Trace(program, [])
        assert len(trace) == 0
        assert trace.total_bytes == 0
        assert trace.reference_counts() == {}
