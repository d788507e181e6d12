"""Vectorized TRG construction (the Section 3 inner loop as arrays).

The scalar builder in :mod:`repro.profiles.trg` walks a linked-list
working set (:class:`~repro.profiles.qset.WorkingSet`) once per trace
reference and pays Python-level cost for every edge credit — the last
scalar hot kernel after the FFT merge evaluator (ROADMAP: "vectorize
the hot kernels").  This module computes the identical graphs from
integer numpy arrays:

1. the reference stream is *encoded*: procedure references become the
   trace's own procedure indices and chunk references become global
   chunk codes, with popularity filtering and consecutive-duplicate
   collapse done as array operations on ``trace.proc_indices`` and the
   extent arrays — no per-event Python objects;
2. previous/next-occurrence indices are derived with one stable sort
   (vectorized last-seen tracking), turning the Section 3 question
   "which blocks appeared between two consecutive references to p?"
   into window queries over plain integers;
3. a single lean index sweep replays the byte-capacity bound of ``Q``
   (the only inherently sequential part — the eviction cursor only
   moves forward, so the sweep is amortized O(n) integer arithmetic);
4. edge credits are materialized in bounded batches as ``(src, dst)``
   code pairs, reduced to COO ``(pair, count)`` triples with
   ``np.unique``, and handed to
   :meth:`~repro.profiles.graph.FrozenGraph.from_edges` — no per-edge
   Python work at all.

Every kernel declares its scalar twin with ``@fast_path`` and the
``parity/*`` conformance rules plus
``tests/profiles/test_trg_fast_parity.py`` hold the pair bit-exact:
same graphs, same :class:`~repro.profiles.trg.TRGBuildStats`
(including ``avg_q_entries`` and ``evictions``).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Iterable, Iterator

import numpy as np

from repro import obs
from repro.cache.config import CacheConfig
from repro.errors import ConfigError
from repro.fastpath import fast_path
from repro.profiles.graph import FrozenGraph
from repro.profiles.pairdb import PairDatabase
from repro.profiles.trg import (
    DEFAULT_Q_MULTIPLIER,
    TRGBuildStats,
    TRGPair,
    validate_trg_params,
)
from repro.program.procedure import DEFAULT_CHUNK_SIZE, ChunkId
from repro.program.program import Program
from repro.trace.trace import Trace

#: Cap on the candidate ``(hit, between)`` index pairs materialized per
#: credit batch.  A handful of int64 arrays of this length live at
#: once, so the scratch space for edge crediting stays around 50 MB no
#: matter how long the trace is.
_BATCH_CANDIDATES = 1 << 20


# ----------------------------------------------------------------------
# Stream encoding
# ----------------------------------------------------------------------


def _collapse(codes: np.ndarray) -> np.ndarray:
    """Drop consecutive duplicate codes (the ref-stream dedup rule)."""
    if len(codes) < 2:
        return codes
    keep = np.empty(len(codes), dtype=bool)
    keep[0] = True
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    return codes[keep]


def _popular_index_mask(
    program: Program, popular: set[str]
) -> np.ndarray:
    """Boolean mask over procedure indices: is the procedure popular?"""
    names = program.names
    return np.fromiter(
        (name in popular for name in names), dtype=bool, count=len(names)
    )


def _proc_sizes(program: Program) -> np.ndarray:
    """Procedure byte sizes indexed by procedure code."""
    names = program.names
    return np.fromiter(
        (program.size_of(name) for name in names),
        dtype=np.int64,
        count=len(names),
    )


def _chunk_geometry(
    program: Program, chunk_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Global chunk numbering: ``(base, chunk_sizes)``.

    ``base[p]`` is the first global chunk code of procedure ``p`` (one
    trailing sentinel entry holds the total count), and
    ``chunk_sizes[c]`` is the byte size of global chunk ``c`` — full
    chunks everywhere except each procedure's final, possibly partial
    chunk, mirroring :meth:`~repro.program.procedure.Procedure
    .chunk_size_of`.
    """
    sizes = _proc_sizes(program)
    counts = -(-sizes // chunk_size)
    base = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(counts, out=base[1:])
    chunk_sizes = np.full(int(base[-1]), chunk_size, dtype=np.int64)
    if len(sizes):
        chunk_sizes[base[1:] - 1] = sizes - (counts - 1) * chunk_size
    return base, chunk_sizes


def _chunk_labels(
    codes: np.ndarray, base: np.ndarray, names
) -> list[ChunkId]:
    """Decode global chunk codes back into :class:`ChunkId` labels."""
    procs = np.searchsorted(base, codes, side="right") - 1
    indices = codes - base[procs]
    return [
        ChunkId(names[proc], index)
        for proc, index in zip(procs.tolist(), indices.tolist())
    ]


@fast_path(scalar="repro.profiles.trg.procedure_refs")
def procedure_ref_codes(
    trace: Trace, popular: set[str] | None = None
) -> np.ndarray:
    """Array twin of :func:`~repro.profiles.trg.procedure_refs`.

    Returns the collapsed, popularity-filtered reference stream as
    procedure indices into ``trace.program.names`` — the same stream
    the scalar generator yields, as one int64 array.
    """
    codes = np.asarray(trace.proc_indices, dtype=np.int64)
    if popular is not None:
        mask = _popular_index_mask(trace.program, popular)
        codes = codes[mask[codes]]
    return _collapse(codes)


@fast_path(scalar="repro.profiles.trg.chunk_refs")
def chunk_ref_codes(
    trace: Trace,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    popular: set[str] | None = None,
) -> np.ndarray:
    """Array twin of :func:`~repro.profiles.trg.chunk_refs`.

    Each extent expands into the global codes of the chunks it
    overlaps (``start // chunk_size`` through ``(end - 1) //
    chunk_size``), filtered and collapsed exactly like the scalar
    generator.  Decode codes with the module-level chunk geometry
    (``base`` from :func:`_chunk_geometry`).
    """
    if chunk_size <= 0:
        raise ConfigError(
            f"chunk size must be positive, got {chunk_size}"
        )
    program = trace.program
    base, _ = _chunk_geometry(program, chunk_size)
    procs = np.asarray(trace.proc_indices, dtype=np.int64)
    starts = np.asarray(trace.extent_starts, dtype=np.int64)
    lengths = np.asarray(trace.extent_lengths, dtype=np.int64)
    if popular is not None:
        mask = _popular_index_mask(program, popular)[procs]
        procs = procs[mask]
        starts = starts[mask]
        lengths = lengths[mask]
    if len(procs) == 0:
        return np.empty(0, dtype=np.int64)
    first = starts // chunk_size
    counts = (starts + lengths - 1) // chunk_size - first + 1
    total = int(counts.sum())
    event = np.repeat(np.arange(len(procs), dtype=np.int64), counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    codes = base[procs[event]] + first[event] + within
    return _collapse(codes)


# ----------------------------------------------------------------------
# The kernel
# ----------------------------------------------------------------------


def _prev_next(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Previous/next same-code occurrence index per position.

    ``prev[t]`` is the latest earlier position referencing the same
    code (``-1`` when none); ``nxt[q]`` is the earliest later one
    (``n`` when none).  One stable sort groups positions by code while
    preserving trace order inside each group.
    """
    n = len(codes)
    prev = np.full(n, -1, dtype=np.int64)
    nxt = np.full(n, n, dtype=np.int64)
    if n > 1:
        order = np.argsort(codes, kind="stable")
        grouped = codes[order]
        same = grouped[1:] == grouped[:-1]
        prev[order[1:][same]] = order[:-1][same]
        nxt[order[:-1][same]] = order[1:][same]
    return prev, nxt


def _sweep(
    codes: np.ndarray,
    prev: np.ndarray,
    nxt: np.ndarray,
    sizes_by_code: np.ndarray,
    capacity: int,
) -> tuple[np.ndarray, int, int]:
    """Replay the byte-capacity bound of ``Q`` over the code stream.

    Returns ``(hit, q_len_total, evictions)``: which steps re-found
    their previous occurrence still inside ``Q``, the sum of ``len(Q)``
    after every step (the ``avg_q_entries`` numerator) and the entries
    dropped by the capacity bound.

    Position ``q`` represents its block in ``Q`` from step ``q`` until
    the block's next reference at ``nxt[q]``, so ``Q`` is exactly the
    positions ``q ≥ low`` (the eviction boundary) with ``nxt[q]``
    still ahead — making the step-``t`` membership test for
    ``prev[t]`` a single integer comparison against ``low``.

    The loop visits *misses only* (typically 4–12% of the stream):
    a step ``t`` misses iff ``prev[t] < low``, and since ``low`` only
    grows, every future miss is knowable the moment it is created —
    ``t`` with ``prev[t] == -1`` (first occurrences, seeded up front)
    or ``t == nxt[v]`` for an evicted position ``v`` (pushed as the
    eviction happens; ``prev`` is injective, so each candidate arises
    exactly once).  A min-heap yields them in stream order, hits in
    between contribute ``count`` per skipped step, and dead positions
    (``nxt[v] <= t``: the block moved to a newer slot) are crossed
    without creating candidates.  Plain Python ints and lists beat
    numpy scalar indexing here; everything around this loop is array
    work.
    """
    n = len(codes)
    miss = np.zeros(n, dtype=bool)
    size_at = sizes_by_code[codes].tolist()
    nxt_list = nxt.tolist()
    # Ascending positions form a valid min-heap as-is.
    heap = np.nonzero(prev == -1)[0].tolist()
    low = 0
    total = 0
    count = 0
    q_len_total = 0
    evictions = 0
    t_prev = -1
    while heap:
        t = heappop(heap)
        # Steps in (t_prev, t) are hits: Q is unchanged through them.
        q_len_total += count * (t - t_prev - 1)
        miss[t] = True
        total += size_at[t]
        count += 1
        while True:
            while nxt_list[low] <= t:
                low += 1
            oldest = size_at[low]
            if total - oldest >= capacity:
                total -= oldest
                count -= 1
                evictions += 1
                successor = nxt_list[low]
                if successor < n:
                    heappush(heap, successor)
                low += 1
            else:
                break
        q_len_total += count
        t_prev = t
    q_len_total += count * (n - 1 - t_prev)
    np.logical_not(miss, out=miss)
    return miss, q_len_total, evictions


def _batch_ranges(lengths: np.ndarray) -> Iterator[tuple[int, int]]:
    """Consecutive ``[start, end)`` ranges over *lengths* whose sum
    stays within :data:`_BATCH_CANDIDATES` (one unit at least, however
    long)."""
    cumulative = np.cumsum(lengths)
    start = 0
    while start < len(lengths):
        consumed = int(cumulative[start - 1]) if start else 0
        end = int(
            np.searchsorted(
                cumulative, consumed + _BATCH_CANDIDATES, side="right"
            )
        )
        end = max(end, start + 1)
        yield start, end
        start = end


def _within(lengths: np.ndarray) -> np.ndarray:
    """Each slot's int32 offset inside its run, for runs of *lengths*
    laid end to end (``[0, 1, 0, 1, 2]`` for ``[2, 3]``)."""
    offsets = np.arange(int(lengths.sum()), dtype=np.int32)
    offsets -= np.repeat(np.cumsum(lengths, dtype=np.int32) - lengths, lengths)
    return offsets


def _credit_counts(
    codes: np.ndarray,
    prev: np.ndarray,
    nxt: np.ndarray,
    hit: np.ndarray,
    num_codes: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Between-set edge credits as COO ``(pair key, count)`` arrays.

    For a hit at ``t`` with previous occurrence ``p``, the scalar
    builder credits one unit toward every block *between* the two
    references — the distinct blocks referenced at positions in
    ``(p, t)``, i.e. the positions ``q`` there whose next occurrence
    is not before ``t``.  Those candidate windows are materialized in
    bounded batches, filtered with the ``nxt`` array, and reduced to
    per-edge counts; keys combine the unordered code pair into one
    int64 (``lo * num_codes + hi``).

    The expansion is memory-bandwidth bound, so positions and codes
    are gathered through int32 copies (both fit: a stream longer than
    2**31 references would not fit in memory to begin with).
    """
    hits = np.nonzero(hit)[0]
    empty = np.empty(0, dtype=np.int64)
    if len(hits) == 0:
        return empty, empty
    codes32 = codes.astype(np.int32)
    nxt32 = nxt.astype(np.int32)
    starts = prev[hits] + 1
    spans = hits - starts
    nonempty = spans > 0
    hits = hits[nonempty]
    starts = starts[nonempty]
    spans = spans[nonempty]
    if len(hits) == 0:
        return empty, empty

    keys_parts: list[np.ndarray] = []
    count_parts: list[np.ndarray] = []
    for batch_start, batch_end in _batch_ranges(spans):
        # int32 index arrays: positions fit comfortably and the
        # expansion is memory-bandwidth bound.
        t_hits = hits[batch_start:batch_end].astype(np.int32)
        t_starts = starts[batch_start:batch_end].astype(np.int32)
        t_spans = spans[batch_start:batch_end].astype(np.int32)
        total = int(t_spans.sum())
        # Built in place: one batch-length temporary fewer at the peak.
        q_index = np.arange(total, dtype=np.int32)
        q_index -= np.repeat(
            np.cumsum(t_spans, dtype=np.int32) - t_spans, t_spans
        )
        q_index += np.repeat(t_starts, t_spans)
        t_index = np.repeat(t_hits, t_spans)
        live = nxt32[q_index] >= t_index
        a = codes32[t_index[live]]
        b = codes32[q_index[live]]
        keys = (
            np.minimum(a, b) * np.int64(num_codes) + np.maximum(a, b)
        )
        unique, counts = np.unique(keys, return_counts=True)
        keys_parts.append(unique)
        count_parts.append(counts.astype(np.int64))

    keys = np.concatenate(keys_parts)
    counts = np.concatenate(count_parts)
    if len(keys_parts) > 1:
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        counts = counts[order]
        boundary = np.empty(len(keys), dtype=bool)
        boundary[0] = True
        np.not_equal(keys[1:], keys[:-1], out=boundary[1:])
        counts = np.add.reduceat(counts, np.nonzero(boundary)[0])
        keys = keys[boundary]
    return keys, counts


@fast_path(scalar="repro.profiles.trg.build_trg")
def build_trg_fast(
    codes: np.ndarray | Iterable[int],
    sizes_by_code: np.ndarray,
    capacity: int,
    labels_of: Callable[[np.ndarray], list] | None = None,
) -> tuple[FrozenGraph, TRGBuildStats]:
    """Vectorized :func:`~repro.profiles.trg.build_trg` on code arrays.

    *codes* is the collapsed reference stream as non-negative integers,
    *sizes_by_code* the byte size of each code, and *labels_of* decodes
    an array of distinct codes into graph-node labels in one batch
    (bare ints by default, so the kernel is testable on integers —
    decoding runs once per distinct block, never per reference or per
    edge).  Output is bit-exact with the scalar builder driven by the
    decoded stream: the same nodes in first-appearance order, the same
    integer-valued edge weights, the same stats.
    """
    if capacity <= 0:
        raise ConfigError(f"capacity must be positive, got {capacity}")
    codes = np.asarray(codes, dtype=np.int64)
    n = len(codes)
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        graph = FrozenGraph.from_edges((), empty, empty, empty)
        return graph, TRGBuildStats(0, 0.0, 0)
    sizes_by_code = np.asarray(sizes_by_code, dtype=np.int64)
    present, first_at = np.unique(codes, return_index=True)
    if labels_of is None:
        decoded = present.tolist()
    else:
        decoded = labels_of(present)
    bad = np.flatnonzero(sizes_by_code[present] <= 0)
    if len(bad):
        code = int(present[bad[0]])
        raise ConfigError(
            f"block {decoded[int(bad[0])]!r} has non-positive size "
            f"{int(sizes_by_code[code])}"
        )

    prev, nxt = _prev_next(codes)
    hit, q_len_total, evictions = _sweep(
        codes, prev, nxt, sizes_by_code, capacity
    )

    # Nodes in first-appearance order, matching the scalar builder.
    order = np.argsort(first_at)
    num_codes = len(sizes_by_code)
    position = np.full(num_codes, -1, dtype=np.int64)
    position[present[order]] = np.arange(len(present))

    keys, counts = _credit_counts(codes, prev, nxt, hit, num_codes)
    # Every unordered pair appears exactly once (and never as a
    # self-pair: the stream is collapsed, so nothing sits between two
    # consecutive references to itself).  Keys ascend, so each row
    # lists its neighbours by ascending code; stored blobs and every
    # walk over a built graph depend on that row order.
    a_codes, b_codes = np.divmod(keys, num_codes)
    graph = FrozenGraph.from_edges(
        map(decoded.__getitem__, order.tolist()),
        position[a_codes],
        position[b_codes],
        counts.astype(np.float64),
    )

    average = q_len_total / n
    return graph, TRGBuildStats(n, average, evictions)


@fast_path(scalar="repro.profiles.trg.build_trgs_scalar")
def build_trgs_fast(
    trace: Trace,
    config: CacheConfig,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    popular: set[str] | None = None,
    q_multiplier: int = DEFAULT_Q_MULTIPLIER,
) -> TRGPair:
    """Vectorized twin of :func:`repro.profiles.trg.build_trgs_scalar`.

    Builds ``TRG_select`` and ``TRG_place`` through the array kernel;
    :func:`~repro.profiles.trg.build_trgs` runs it.
    """
    validate_trg_params(chunk_size, q_multiplier)
    capacity = q_multiplier * config.size
    program = trace.program
    names = program.names

    with obs.span("build_trg_select"):
        select, select_stats = build_trg_fast(
            procedure_ref_codes(trace, popular),
            _proc_sizes(program),
            capacity,
            lambda codes: [names[code] for code in codes.tolist()],
        )
    with obs.span("build_trg_place"):
        base, chunk_sizes = _chunk_geometry(program, chunk_size)
        place, place_stats = build_trg_fast(
            chunk_ref_codes(trace, chunk_size, popular),
            chunk_sizes,
            capacity,
            lambda codes: _chunk_labels(codes, base, names),
        )
    return TRGPair(
        select=select,
        place=place,
        select_stats=select_stats,
        place_stats=place_stats,
        chunk_size=chunk_size,
    )


# ----------------------------------------------------------------------
# The Section 6 pair database
# ----------------------------------------------------------------------


def _pair_credits(
    dense: np.ndarray,
    prev: np.ndarray,
    nxt: np.ndarray,
    hit: np.ndarray,
    num_codes: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pair credits as ``(key, first credit, count)`` arrays.

    A hit at ``t`` credits every 2-subset of its between-set to the
    block at ``t``.  The between-set is the *live* positions ``q`` in
    ``(prev[t], t)`` (``nxt[q] >= t``); each stands for a distinct
    block, and ascending ``q`` is ``Q``'s oldest-to-newest order, the
    order the scalar walk lists them in.  Pair ``(i, j)``, ``i < j``,
    of that list is expanded row by row (row ``i`` holds ``j = i + 1
    .. k - 1``), so credits are numbered in exactly the order the
    scalar builder makes them.  *dense* holds codes relabelled to
    ``[0, num_codes)``; a key packs ``(block, lo, hi)`` into one
    int64 (``num_codes < 2**21``).  Both expansions run in int32
    batches bounded by :data:`_BATCH_CANDIDATES`.
    """
    hits = np.nonzero(hit)[0]
    starts = prev[hits] + 1
    spans = hits - starts
    # Fewer than two positions between the references credit nothing.
    pairable = spans > 1
    hits = hits[pairable].astype(np.int32)
    starts = starts[pairable].astype(np.int32)
    spans = spans[pairable].astype(np.int32)
    codes32 = dense.astype(np.int32)
    nxt32 = nxt.astype(np.int32)
    keys_parts: list[np.ndarray] = []
    first_parts: list[np.ndarray] = []
    count_parts: list[np.ndarray] = []
    credited = 0
    for batch_start, batch_end in _batch_ranges(spans):
        t_hits = hits[batch_start:batch_end]
        t_spans = spans[batch_start:batch_end]
        owner = np.repeat(np.arange(len(t_hits), dtype=np.int32), t_spans)
        q_index = _within(t_spans)
        q_index += np.repeat(starts[batch_start:batch_end], t_spans)
        live = nxt32[q_index] >= t_hits[owner]
        live_codes = codes32[q_index[live]]
        k = np.bincount(owner[live], minlength=len(t_hits)).astype(np.int32)
        # Row i of a hit pairs its live position i with every later one.
        rows = np.maximum(k - 1, 0)
        row_owner = np.repeat(np.arange(len(t_hits), dtype=np.int32), rows)
        row_i = _within(rows)
        row_len = k[row_owner] - 1 - row_i
        row_at = (np.cumsum(k, dtype=np.int32) - k)[row_owner] + row_i
        row_block = codes32[t_hits[row_owner]]
        for row_start, row_end in _batch_ranges(row_len):
            lengths = row_len[row_start:row_end]
            a_at = np.repeat(row_at[row_start:row_end], lengths)
            b_at = _within(lengths)
            b_at += a_at + 1
            a = live_codes[a_at]
            b = live_codes[b_at]
            block = np.repeat(row_block[row_start:row_end], lengths)
            keys = (
                block.astype(np.int64) * num_codes + np.minimum(a, b)
            ) * num_codes + np.maximum(a, b)
            unique, first, counts = np.unique(
                keys, return_index=True, return_counts=True
            )
            keys_parts.append(unique)
            first_parts.append(first + credited)
            count_parts.append(counts)
            credited += len(keys)

    empty = np.empty(0, dtype=np.int64)
    keys = np.concatenate(keys_parts) if keys_parts else empty
    first = np.concatenate(first_parts) if first_parts else empty
    counts = np.concatenate(count_parts) if count_parts else empty
    if len(keys_parts) > 1:
        # Parts are in credit order, so a stable sort puts each key's
        # earliest part, and so its first credit, at the group head.
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        boundary = np.empty(len(keys), dtype=bool)
        boundary[0] = True
        np.not_equal(keys[1:], keys[:-1], out=boundary[1:])
        counts = np.add.reduceat(counts[order], np.nonzero(boundary)[0])
        first = first[order][boundary]
        keys = keys[boundary]
    return keys, first, counts


@fast_path(scalar="repro.profiles.pairdb.build_pair_database")
def build_pair_database_fast(
    trace: Trace, popular: set[str] | None, capacity: int
) -> tuple[PairDatabase, TRGBuildStats]:
    """Array twin of :func:`~repro.profiles.pairdb.build_pair_database`
    on ``procedure_refs(trace, popular)``.

    Runs the ``TRG_select`` kernel's prev/next arrays and ``Q`` sweep,
    counts pair credits with :func:`_pair_credits`, and loads each
    block's pairs in first-credit order, blocks in the order of their
    first credit.  The database, its :meth:`~repro.profiles.pairdb
    .PairDatabase.pairs_for` order and the stats equal the scalar
    build's.
    """
    if capacity <= 0:
        raise ConfigError(f"capacity must be positive, got {capacity}")
    names = trace.program.names
    codes = procedure_ref_codes(trace, popular)
    n = len(codes)
    database = PairDatabase()
    stats = TRGBuildStats(0, 0.0, 0)
    with obs.span("build_pair_db", q_capacity=capacity):
        if n:
            present, first_at, dense = np.unique(
                codes, return_index=True, return_inverse=True
            )
            for code in codes[np.sort(first_at)].tolist():
                database.add_block(names[code])
            prev, nxt = _prev_next(codes)
            hit, q_len_total, evictions = _sweep(
                codes, prev, nxt, _proc_sizes(trace.program), capacity
            )
            num_codes = len(present)
            keys, first, counts = _pair_credits(
                dense, prev, nxt, hit, num_codes
            )
            order = np.argsort(first)
            block, pair = np.divmod(keys[order], num_codes * num_codes)
            lo, hi = np.divmod(pair, num_codes)
            labels = [names[code] for code in present.tolist()]
            rows: dict[int, dict[frozenset, int]] = {}
            for p, r, s, count in zip(
                block.tolist(), lo.tolist(), hi.tolist(), counts[order].tolist()
            ):
                row = rows.get(p)
                if row is None:
                    row = rows[p] = {}
                row[frozenset((labels[r], labels[s]))] = count
            for p, row in rows.items():
                database.set_pairs(labels[p], row)
            stats = TRGBuildStats(n, q_len_total / n, evictions)
    obs.inc("pairdb.refs_processed", n)
    obs.inc("pairdb.records", database.total_records())
    return database, stats
