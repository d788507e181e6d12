"""Producing the final linear list (Section 4.3).

After merging, every popular procedure has a *cache-relative* line
offset inside some node.  This module converts those offsets into real
addresses: procedures are emitted in an order that realises each
procedure's offset (every address is congruent to ``offset *
line_size`` modulo the cache size) while keeping the gaps between
consecutive popular procedures as small as possible, then gaps are
filled with unpopular procedures and the remaining unpopular
procedures are appended.

The paper's gap formula compares the offset ``q_SL`` of the candidate's
first line with the offset ``p_EL`` of the last procedure's final
occupied line::

    gap = q_SL - p_EL            if q_SL > p_EL
          q_SL - (p_EL - N)      otherwise

so an immediately adjacent candidate (``q_SL == p_EL + 1``) has gap 1
and a candidate landing on the same line wraps a whole cache (gap N).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

from repro import obs
from repro.cache.config import CacheConfig
from repro.core.merge import MergeNode
from repro.errors import PlacementError
from repro.program.layout import Layout
from repro.profiles.graph import ProfileGraph
from repro.program.program import Program


@dataclass(frozen=True)
class LinearizationResult:
    """The layout plus bookkeeping useful in tests and reports."""

    layout: Layout
    popular_order: tuple[str, ...]
    gap_fillers: tuple[str, ...]
    gap_bytes: int


def linearize(
    nodes: Sequence[MergeNode],
    program: Program,
    config: CacheConfig,
    unpopular: Sequence[str] = (),
    affinity: ProfileGraph | None = None,
) -> LinearizationResult:
    """Assign addresses realizing every node's cache-relative offsets.

    When *affinity* (any object with a ``weight(a, b)`` method, e.g.
    ``TRG_select``) is given, candidates tied on the minimal gap are
    ordered by descending temporal affinity to the previously placed
    procedure.  The cache mapping is unchanged — every offset is still
    realised — but temporally related procedures end up on the same
    pages, the Section 4.3 remark that the linear ordering can also be
    chosen "to reduce paging problems".
    """
    with obs.span("linearize", nodes=len(nodes), unpopular=len(unpopular)):
        result = _linearize(nodes, program, config, unpopular, affinity)
    obs.inc("linearize.gap_bytes", result.gap_bytes)
    obs.inc("linearize.gap_fillers", len(result.gap_fillers))
    return result


def _linearize(
    nodes: Sequence[MergeNode],
    program: Program,
    config: CacheConfig,
    unpopular: Sequence[str] = (),
    affinity: ProfileGraph | None = None,
) -> LinearizationResult:
    offsets: dict[str, int] = {}
    node_size: dict[str, int] = {}
    for node in nodes:
        for placement in node.placements:
            if placement.name in offsets:
                raise PlacementError(
                    f"procedure {placement.name!r} appears in two nodes"
                )
            offsets[placement.name] = placement.offset % config.num_lines
            node_size[placement.name] = len(node)
    for name in offsets:
        if name not in program:
            raise PlacementError(f"unknown procedure {name!r} in nodes")
    overlap = set(offsets) & set(unpopular)
    if overlap:
        raise PlacementError(
            f"procedures listed both popular and unpopular: {sorted(overlap)}"
        )

    num_lines = config.num_lines
    line_size = config.line_size
    cache_bytes = config.size

    def last_line(name: str) -> int:
        lines = len(config.lines_spanned(0, program.size_of(name)))
        return (offsets[name] + lines - 1) % num_lines

    addresses: dict[str, int] = {}
    popular_order: list[str] = []
    gap_fillers: list[str] = []
    gap_bytes = 0

    # Unpopular procedures sorted ascending by size for best-fit filling.
    filler_pool = sorted(
        unpopular, key=lambda n: (program.size_of(n), n)
    )
    filler_sizes = [program.size_of(n) for n in filler_pool]

    def fill_gap(cursor: int, gap: int) -> int:
        """Best-fit unpopular procedures into *gap* bytes at *cursor*."""
        nonlocal gap_bytes
        while filler_pool:
            index = bisect_right(filler_sizes, gap) - 1
            if index < 0:
                break
            name = filler_pool.pop(index)
            size = filler_sizes.pop(index)
            addresses[name] = cursor
            gap_fillers.append(name)
            cursor += size
            gap -= size
        gap_bytes += gap
        return cursor + gap

    remaining = set(offsets)
    cursor = 0
    previous: str | None = None
    while remaining:
        if previous is None:
            # Prefer an offset-0 procedure; any starting offset will do.
            chosen = min(
                remaining,
                key=lambda n: (offsets[n], -node_size[n], n),
            )
            address = offsets[chosen] * line_size
        else:
            p_el = last_line(previous)

            def gap_of(name: str) -> int:
                q_sl = offsets[name]
                if q_sl > p_el:
                    return q_sl - p_el
                return q_sl - (p_el - num_lines)

            if affinity is None:
                chosen = min(
                    remaining,
                    key=lambda n: (gap_of(n), -program.size_of(n), n),
                )
            else:
                last = previous
                chosen = min(
                    remaining,
                    key=lambda n: (
                        gap_of(n),
                        -affinity.weight(last, n),
                        -program.size_of(n),
                        n,
                    ),
                )
            target = offsets[chosen] * line_size
            address = cursor + (target - cursor) % cache_bytes
            if address > cursor:
                address_after_fill = fill_gap(cursor, address - cursor)
                assert address_after_fill == address
        addresses[chosen] = address
        popular_order.append(chosen)
        cursor = address + program.size_of(chosen)
        remaining.remove(chosen)
        previous = chosen

    # Remaining unpopular procedures trail the layout contiguously.
    for name in filler_pool:
        addresses[name] = cursor
        cursor += program.size_of(name)

    # Any program procedure not mentioned at all trails as well.
    for name in program.names:
        if name not in addresses:
            addresses[name] = cursor
            cursor += program.size_of(name)

    return LinearizationResult(
        layout=Layout(program, addresses),
        popular_order=tuple(popular_order),
        gap_fillers=tuple(gap_fillers),
        gap_bytes=gap_bytes,
    )
