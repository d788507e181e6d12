"""The Hashemi, Kaeli & Calder cache-line-colouring algorithm ("HKC").

Section 5 of the paper describes HKC as an extension of PH that also
knows the procedure sizes and cache geometry: it "records the set of
cache lines occupied by each procedure during placement, and it tries
to prevent overlap between a procedure and any of its immediate
neighbors in the call graph."  Only popular procedures are coloured;
the rest are appended afterwards.

This is a reimplementation from that description plus the published
idea of cache-line colouring (Hashemi et al., PLDI'97); the original
code is not available.  Specifics of our version (documented in
DESIGN.md): compounds of placed procedures grow by appending at
line-aligned offsets; when an edge joins two procedures we scan the
candidate offsets nearest the compound end and take the first one whose
cache lines avoid the callee's *and* caller's already-coloured
immediate WCG neighbours, falling back to the least-overlapping offset;
already-placed procedures are never moved (the paper allows moves that
do not break prior decisions — a conservative subset of that freedom).
"""

from __future__ import annotations

import heapq

from repro.cache.config import CacheConfig
from repro.placement.base import PlacementContext
from repro.profiles.graph import WeightedGraph
from repro.program.layout import Layout
from repro.program.program import Program


class _Compound:
    """A group of placed procedures with byte offsets from its base.

    The compound's base is assumed to map to cache line 0; because the
    final layout places each compound at a multiple of the cache size,
    the line colours computed here are exactly the final ones.
    """

    def __init__(self) -> None:
        self.members: list[tuple[str, int]] = []
        self.end = 0

    def add(self, name: str, offset: int, size: int) -> None:
        self.members.append((name, offset))
        self.end = max(self.end, offset + size)

    def offset_of(self, name: str) -> int:
        for member, offset in self.members:
            if member == name:
                return offset
        raise KeyError(name)


class HashemiKaeliCalderPlacement:
    """Cache-line-colouring procedure placement ("HKC")."""

    name = "HKC"

    def place(self, context: PlacementContext) -> Layout:
        order, gaps = hkc_order(
            context.program,
            context.wcg,
            context.config,
            context.popular_set or None,
        )
        return Layout.from_order(context.program, order, gaps_before=gaps)


def hkc_order(
    program: Program,
    wcg: WeightedGraph,
    config: CacheConfig,
    popular: set[str] | None = None,
) -> tuple[list[str], dict[str, int]]:
    """The HKC procedure order plus alignment gaps.

    Returns ``(order, gaps_before)`` suitable for
    :meth:`repro.program.layout.Layout.from_order`.
    """
    order, gaps, _ = _colour_and_order(program, wcg, config, popular)
    return order, gaps


def _colour_and_order(
    program: Program,
    wcg: WeightedGraph,
    config: CacheConfig,
    popular: set[str] | None,
) -> tuple[list[str], dict[str, int], dict[str, int]]:
    """:func:`hkc_order` plus each coloured procedure's line bitmask."""
    if popular is None:
        popular = {name for name in wcg.nodes}
    colourable = [n for n in program.names if n in popular]

    compounds: list[_Compound] = []
    compound_of: dict[str, _Compound] = {}
    lines_of: dict[str, int] = {}
    num_lines = config.num_lines
    line_size = config.line_size

    def colour(name: str, offset: int) -> int:
        return line_mask(offset, program.size_of(name), line_size, num_lines)

    def avoid_lines(name: str, partner: str) -> int:
        """Lines of *partner* plus *name*'s placed immediate neighbours."""
        avoid = lines_of.get(partner, 0)
        for neighbor in wcg.neighbors(name):
            if neighbor in lines_of and neighbor != name:
                avoid |= lines_of[neighbor]
        return avoid

    def append_to(
        compound: _Compound, name: str, partner: str
    ) -> None:
        """Place *name* in *compound*, avoiding *partner* and neighbours."""
        base = _align_up(compound.end, line_size)
        avoid = avoid_lines(name, partner)
        best_offset = base
        best_overlap: int | None = None
        for k in range(num_lines):
            offset = base + k * line_size
            overlap = (colour(name, offset) & avoid).bit_count()
            if overlap == 0:
                best_offset = offset
                break
            if best_overlap is None or overlap < best_overlap:
                best_overlap = overlap
                best_offset = offset
        compound.add(name, best_offset, program.size_of(name))
        compound_of[name] = compound
        lines_of[name] = colour(name, best_offset)

    def merge(
        a: _Compound, b: _Compound, p: str, q: str
    ) -> None:
        """Concatenate compound *b* after *a*, aligning to avoid p/q."""
        base = _align_up(a.end, line_size)
        p_lines = lines_of[p]
        q_offset_in_b = b.offset_of(q)
        best_shift = base
        for k in range(num_lines):
            shift = base + k * line_size
            if not (colour(q, shift + q_offset_in_b) & p_lines):
                best_shift = shift
                break
        for name, offset in b.members:
            new_offset = best_shift + offset
            a.add(name, new_offset, program.size_of(name))
            compound_of[name] = a
            lines_of[name] = colour(name, new_offset)
        compounds.remove(b)

    heap: list[tuple[float, str, str, str, str]] = []
    for a, b, weight in wcg.edges():
        if a in popular and b in popular:
            heapq.heappush(heap, (-weight, repr(a), repr(b), a, b))

    while heap:
        _, _, _, p, q = heapq.heappop(heap)
        in_p = compound_of.get(p)
        in_q = compound_of.get(q)
        if in_p is None and in_q is None:
            compound = _Compound()
            compound.add(p, 0, program.size_of(p))
            compound_of[p] = compound
            lines_of[p] = colour(p, 0)
            compounds.append(compound)
            append_to(compound, q, p)
        elif in_p is not None and in_q is None:
            append_to(in_p, q, p)
        elif in_p is None and in_q is not None:
            append_to(in_q, p, q)
        elif in_p is not in_q:
            merge(in_p, in_q, p, q)
        # Same compound: both already coloured; nothing to do.

    # Popular procedures never touched by an edge get their own compound.
    for name in colourable:
        if name not in compound_of:
            compound = _Compound()
            compound.add(name, 0, program.size_of(name))
            compound_of[name] = compound
            lines_of[name] = colour(name, 0)
            compounds.append(compound)

    compounds.sort(
        key=lambda c: (-_compound_strength(c, wcg), c.members[0][0])
    )

    order: list[str] = []
    gaps: dict[str, int] = {}
    cursor = 0
    for compound in compounds:
        members = sorted(compound.members, key=lambda m: m[1])
        # Each compound starts at a multiple of the cache size so that
        # its computed colours are realised exactly.
        compound_base = _align_up(cursor, config.size)
        for name, offset in members:
            target = compound_base + offset
            gaps[name] = target - cursor
            order.append(name)
            cursor = target + program.size_of(name)
    popular_placed = set(order)
    order.extend(
        n for n in program.names if n not in popular_placed
    )
    return order, gaps, lines_of


def line_mask(offset: int, size: int, line_size: int, num_lines: int) -> int:
    """The cache lines *size* bytes at *offset* cover, as a bitmask.

    Bit ``i`` stands for cache line ``i``: a run of one bit per line
    spanned, rotated to the first line's index, or every bit when the
    extent spans the whole cache.  A zero-size extent covers nothing.
    """
    if size == 0:
        return 0
    every_line = (1 << num_lines) - 1
    first = offset // line_size
    count = (offset + size - 1) // line_size - first + 1
    if count >= num_lines:
        return every_line
    run = (1 << count) - 1
    shift = first % num_lines
    return ((run << shift) | (run >> (num_lines - shift))) & every_line


def _compound_strength(compound: _Compound, wcg: WeightedGraph) -> float:
    return sum(
        wcg.weight(member, neighbor)
        for member, _ in compound.members
        for neighbor in wcg.neighbors(member)
    )


def _align_up(value: int, alignment: int) -> int:
    return -(-value // alignment) * alignment
