"""Deriving the instruction-fetch line stream from a layout and a trace.

A trace is layout-independent (procedure-relative extents); the cache
only sees byte addresses.  This module applies a layout to a trace and
produces the sequence of *memory line* indices fetched, plus the total
instruction-fetch count — the two inputs every cache model needs.

Within one extent, execution is sequential, so each spanned line is
touched once per extent (repeat fetches to a just-fetched line cannot
miss and are folded into the fetch count).

Lines are int32: half the memory traffic of int64 through the cache
kernels, which sort and gather the whole stream.  A layout whose
highest line does not fit (a procedure placed near 64 GB with 32-byte
lines) is rejected with a :class:`~repro.errors.LayoutError` before
the stream is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.cache.config import CacheConfig
from repro.errors import LayoutError
from repro.program.layout import Layout
from repro.trace.trace import Trace


#: The highest memory line, and the most line touches, a stream holds.
MAX_LINE = np.iinfo(np.int32).max


@dataclass(frozen=True, slots=True)
class LineStream:
    """The fetch stream: line touches in order plus fetch accounting.

    Attributes
    ----------
    lines:
        Memory-line index of each line touch, in trace order (int32).
    fetches:
        Total instruction fetches represented by the stream.
    """

    lines: np.ndarray
    fetches: int

    def __len__(self) -> int:
        return len(self.lines)


def line_stream(
    layout: Layout, trace: Trace, config: CacheConfig
) -> LineStream:
    """Expand every trace extent into its sequence of memory lines.

    Raises :class:`~repro.errors.LayoutError` if *layout* and *trace*
    describe different programs, or if a line index or the number of
    line touches exceeds :data:`MAX_LINE` (``2**31 - 1``).
    """
    if trace.program is not layout.program and trace.program != layout.program:
        # Same-value programs are fine; the arrays below are per-index.
        raise LayoutError(
            "the trace and the layout describe different programs"
        )
    with obs.span("line_stream") as record:
        stream = _expand(layout, trace, config)
        if record is not None:
            record.attributes["lines"] = len(stream.lines)
    return stream


def _expand(layout: Layout, trace: Trace, config: CacheConfig) -> LineStream:
    n_events = len(trace)
    if n_events == 0:
        return LineStream(np.empty(0, dtype=np.int32), 0)

    program = layout.program
    bases = np.asarray(
        [layout.address_of(name) for name in program.names], dtype=np.int64
    )
    starts = bases[trace.proc_indices] + trace.extent_starts
    lengths = trace.extent_lengths
    first = starts // config.line_size
    last = (starts + lengths - 1) // config.line_size
    highest = int(last.max())
    if highest > MAX_LINE:
        raise LayoutError(
            f"the layout reaches memory line {highest}, above the int32 "
            f"line-stream limit of {MAX_LINE} lines of {config.line_size} "
            "bytes"
        )
    counts = last - first + 1
    total = int(counts.sum())
    if total > MAX_LINE:
        raise LayoutError(
            f"the trace makes {total} line touches, above the int32 "
            f"line-stream limit of {MAX_LINE}"
        )
    offsets = np.cumsum(counts) - counts
    # Each extent's lines are its position in the stream plus one
    # per-extent shift; both fit int32 once the checks above pass.
    lines = np.arange(total, dtype=np.int32)
    lines += np.repeat((first - offsets).astype(np.int32), counts)

    isize = config.instruction_size
    fetches = int(np.maximum(lengths // isize, 1).sum())
    return LineStream(lines=lines, fetches=fetches)
