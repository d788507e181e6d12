"""Deriving the instruction-fetch line stream from a layout and a trace.

A trace is layout-independent (procedure-relative extents); the cache
only sees byte addresses.  This module applies a layout to a trace and
produces the sequence of *memory line* indices fetched, plus the total
instruction-fetch count — the two inputs every cache model needs.

Within one extent, execution is sequential, so each spanned line is
touched once per extent (repeat fetches to a just-fetched line cannot
miss and are folded into the fetch count).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.cache.config import CacheConfig
from repro.errors import LayoutError
from repro.program.layout import Layout
from repro.trace.trace import Trace


@dataclass(frozen=True, slots=True)
class LineStream:
    """The fetch stream: line touches in order plus fetch accounting.

    Attributes
    ----------
    lines:
        Memory-line index of each line touch, in trace order.
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
    """Expand every trace extent into its sequence of memory lines."""
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
        return LineStream(np.empty(0, dtype=np.int64), 0)

    program = layout.program
    bases = np.asarray(
        [layout.address_of(name) for name in program.names], dtype=np.int64
    )
    starts = bases[trace.proc_indices] + trace.extent_starts
    lengths = trace.extent_lengths
    first = starts // config.line_size
    last = (starts + lengths - 1) // config.line_size
    counts = last - first + 1

    total = int(counts.sum())
    offsets = np.cumsum(counts) - counts
    # Built in place: one line-length temporary fewer at the peak.
    lines = np.arange(total, dtype=np.int64)
    lines -= np.repeat(offsets, counts)
    lines += np.repeat(first, counts)

    isize = config.instruction_size
    fetches = int(np.maximum(lengths // isize, 1).sum())
    return LineStream(lines=lines, fetches=fetches)
