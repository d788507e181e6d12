"""The trace container.

Traces can hold hundreds of thousands of events, so they are stored as
three parallel numpy arrays (procedure index, extent start, extent
length) rather than as a list of Python objects.  Iteration re-creates
:class:`~repro.trace.events.TraceEvent` values lazily.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator

import numpy as np

from repro.errors import TraceError
from repro.program.procedure import DEFAULT_CHUNK_SIZE, ChunkId
from repro.program.program import Program
from repro.trace.events import TraceEvent


class Trace:
    """An immutable sequence of :class:`TraceEvent` over a program."""

    def __init__(self, program: Program, events: Iterable[TraceEvent]) -> None:
        self._program = program
        name_to_index = {name: i for i, name in enumerate(program.names)}
        procs: list[int] = []
        starts: list[int] = []
        lengths: list[int] = []
        sizes = [program.size_of(name) for name in program.names]
        for event in events:
            try:
                index = name_to_index[event.procedure]
            except KeyError:
                raise TraceError(
                    f"trace references unknown procedure {event.procedure!r}"
                ) from None
            if event.length <= 0:
                raise TraceError(
                    f"event for {event.procedure!r} has non-positive "
                    f"length {event.length}"
                )
            if event.start < 0 or event.start + event.length > sizes[index]:
                raise TraceError(
                    f"event extent [{event.start}, "
                    f"{event.start + event.length}) is outside procedure "
                    f"{event.procedure!r} of size {sizes[index]}"
                )
            procs.append(index)
            starts.append(event.start)
            lengths.append(event.length)
        self._procs = np.asarray(procs, dtype=np.int32)
        self._starts = np.asarray(starts, dtype=np.int64)
        self._lengths = np.asarray(lengths, dtype=np.int64)

    @classmethod
    def from_arrays(
        cls,
        program: Program,
        procs: np.ndarray,
        starts: np.ndarray,
        lengths: np.ndarray,
    ) -> "Trace":
        """Adopt pre-built arrays (used by the trace generator).

        The arrays are validated in bulk and copied defensively.
        Procedure indices are range-checked before they are narrowed
        to int32, so an index that does not fit cannot wrap into range.
        """
        trace = cls.__new__(cls)
        trace._program = program
        procs = np.asarray(procs)
        starts = np.asarray(starts, dtype=np.int64).copy()
        lengths = np.asarray(lengths, dtype=np.int64).copy()
        if not (len(procs) == len(starts) == len(lengths)):
            raise TraceError("trace arrays must have equal lengths")
        if len(procs) and (
            procs.min() < 0 or procs.max() >= len(program)
        ):
            raise TraceError("procedure index out of range")
        procs = procs.astype(np.int32)
        sizes = np.asarray(
            [program.size_of(name) for name in program.names], dtype=np.int64
        )
        if len(procs):
            if (lengths <= 0).any():
                raise TraceError("all extent lengths must be positive")
            # starts > size - length, which cannot overflow as
            # starts + length can.
            if (starts < 0).any() or (
                starts > sizes[procs] - lengths
            ).any():
                raise TraceError("an extent falls outside its procedure")
        trace._procs = procs
        trace._starts = starts
        trace._lengths = lengths
        return trace

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------

    @property
    def program(self) -> Program:
        return self._program

    def __len__(self) -> int:
        return len(self._procs)

    def __iter__(self) -> Iterator[TraceEvent]:
        names = self._program.names
        for index in range(len(self._procs)):
            yield TraceEvent(
                names[self._procs[index]],
                int(self._starts[index]),
                int(self._lengths[index]),
            )

    def __getitem__(self, index: int) -> TraceEvent:
        names = self._program.names
        return TraceEvent(
            names[self._procs[index]],
            int(self._starts[index]),
            int(self._lengths[index]),
        )

    # ------------------------------------------------------------------
    # Bulk views (used by the fast simulator and the TRG builders)
    # ------------------------------------------------------------------

    @property
    def proc_indices(self) -> np.ndarray:
        """Procedure index (into ``program.names``) per event, read-only."""
        view = self._procs.view()
        view.flags.writeable = False
        return view

    @property
    def extent_starts(self) -> np.ndarray:
        view = self._starts.view()
        view.flags.writeable = False
        return view

    @property
    def extent_lengths(self) -> np.ndarray:
        view = self._lengths.view()
        view.flags.writeable = False
        return view

    # ------------------------------------------------------------------
    # Derived streams
    # ------------------------------------------------------------------

    def procedure_refs(self) -> Iterator[str]:
        """Procedure name of each event, in trace order."""
        names = self._program.names
        for index in self._procs:
            yield names[index]

    def chunk_refs(
        self, chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> Iterator[ChunkId]:
        """Chunk references, expanding each extent into its chunks."""
        names = self._program.names
        for i in range(len(self._procs)):
            name = names[self._procs[i]]
            start = int(self._starts[i])
            end = start + int(self._lengths[i])
            first = start // chunk_size
            last = (end - 1) // chunk_size
            for chunk_index in range(first, last + 1):
                yield ChunkId(name, chunk_index)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    @property
    def total_bytes(self) -> int:
        """Total bytes executed across all events."""
        return int(self._lengths.sum())

    def instruction_count(self, instruction_size: int = 4) -> int:
        """Approximate dynamic instruction count of the trace."""
        return self.total_bytes // instruction_size

    def reference_counts(self) -> Counter[str]:
        """Dynamic activation count per procedure."""
        names = self._program.names
        counts = np.bincount(self._procs, minlength=len(names))
        return Counter(
            {names[i]: int(c) for i, c in enumerate(counts) if c}
        )

    def byte_counts(self) -> Counter[str]:
        """Dynamic executed-byte count per procedure."""
        names = self._program.names
        totals = np.bincount(
            self._procs, weights=self._lengths, minlength=len(names)
        )
        return Counter(
            {names[i]: int(t) for i, t in enumerate(totals) if t}
        )

    def touched_procedures(self) -> set[str]:
        """Names of procedures referenced at least once."""
        names = self._program.names
        return {names[i] for i in np.unique(self._procs)}

    def __repr__(self) -> str:
        return (
            f"Trace({len(self)} events, {self.total_bytes} bytes executed, "
            f"{len(self._program)}-procedure program)"
        )
