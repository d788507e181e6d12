"""Temporal relationship graph (TRG) construction (Sections 3 and 4.1).

The TRG edge weight ``W(e_pq)`` counts how many times ``q`` appeared
between two consecutive (still-relevant) references to ``p``: exactly
the situations in which ``q`` can destroy the reuse of ``p`` in a
direct-mapped cache.  Relevance is bounded by the working set ``Q``
(:mod:`repro.profiles.qset`) whose byte capacity defaults to twice the
cache size.

GBSC needs two TRGs built from the same trace (Section 4.1):

* ``TRG_select`` over whole procedures — drives the greedy merge order;
* ``TRG_place`` over fixed-size procedure *chunks* — drives the
  cache-relative alignment search and handles procedures larger than
  the cache.

:func:`build_trgs` produces both in one pass over the trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable

from repro import obs
from repro.cache.config import CacheConfig
from repro.errors import ConfigError
from repro.profiles.graph import WeightedGraph
from repro.profiles.qset import WorkingSet
from repro.program.procedure import DEFAULT_CHUNK_SIZE, ChunkId
from repro.trace.trace import Trace

#: The paper's empirical bound on Q: twice the cache size (Section 3).
DEFAULT_Q_MULTIPLIER = 2


def validate_trg_params(chunk_size: int, q_multiplier: int) -> None:
    """Reject non-positive TRG build parameters with :class:`ConfigError`."""
    if chunk_size <= 0:
        raise ConfigError(f"chunk size must be positive, got {chunk_size}")
    if q_multiplier <= 0:
        raise ConfigError(
            f"q_multiplier must be positive, got {q_multiplier}"
        )


@dataclass(frozen=True, slots=True)
class TRGBuildStats:
    """Bookkeeping from one TRG build pass.

    ``avg_q_entries`` is the mean number of identifiers present in
    ``Q`` after each processing step — the "average Q size" column of
    Table 1 when built at procedure granularity.  ``evictions`` counts
    entries the capacity bound dropped from ``Q`` during the pass.
    """

    refs_processed: int
    avg_q_entries: float
    evictions: int = 0


def build_trg(
    refs: Iterable[Hashable],
    size_of: Callable[[Hashable], int],
    capacity: int,
) -> tuple[WeightedGraph, TRGBuildStats]:
    """Build a TRG from a reference stream at any granularity.

    Implements the per-step processing of Section 3: append the new
    reference to ``Q``; if a previous reference to the same block is
    present, credit one unit to the edge toward every block between the
    two references; otherwise evict stale entries.
    """
    graph = WeightedGraph()
    working_set = WorkingSet(capacity, size_of)
    refs_processed = 0
    q_entry_total = 0
    for block in refs:
        graph.add_node(block)
        between = working_set.reference(block)
        if between is not None:
            for other in between:
                graph.add_edge(block, other, 1.0)
        refs_processed += 1
        q_entry_total += len(working_set)
    average = q_entry_total / refs_processed if refs_processed else 0.0
    return graph, TRGBuildStats(
        refs_processed, average, working_set.evictions
    )


@dataclass(frozen=True, slots=True)
class TRGPair:
    """The two graphs GBSC consumes plus build statistics."""

    select: WeightedGraph
    place: WeightedGraph
    select_stats: TRGBuildStats
    place_stats: TRGBuildStats
    chunk_size: int


def procedure_refs(
    trace: Trace, popular: set[str] | None = None
) -> Iterable[str]:
    """Procedure references, duplicates collapsed, optionally filtered.

    Per Section 4 (following Hashemi et al.), only popular procedures
    participate in TRG construction when *popular* is given; references
    to other procedures are dropped from the stream entirely.
    """
    names = trace.program.names
    previous: str | None = None
    for index in trace.proc_indices:
        name = names[index]
        if popular is not None and name not in popular:
            continue
        if name != previous:
            yield name
            previous = name


def chunk_refs(
    trace: Trace,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    popular: set[str] | None = None,
) -> Iterable[ChunkId]:
    """Chunk references, duplicates collapsed, optionally filtered."""
    names = trace.program.names
    starts = trace.extent_starts
    lengths = trace.extent_lengths
    previous: ChunkId | None = None
    for position, index in enumerate(trace.proc_indices):
        name = names[index]
        if popular is not None and name not in popular:
            continue
        start = int(starts[position])
        end = start + int(lengths[position])
        first = start // chunk_size
        last = (end - 1) // chunk_size
        for chunk_index in range(first, last + 1):
            chunk = ChunkId(name, chunk_index)
            if chunk != previous:
                yield chunk
                previous = chunk


def build_trgs_scalar(
    trace: Trace,
    config: CacheConfig,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    popular: set[str] | None = None,
    q_multiplier: int = DEFAULT_Q_MULTIPLIER,
) -> TRGPair:
    """Scalar twin of :func:`repro.profiles.fast.build_trgs_fast`.

    The literal Section 3 pipeline (a per-reference
    :class:`WorkingSet` walk); the parity tests hold the vectorized
    kernel bit-exact with it.
    """
    validate_trg_params(chunk_size, q_multiplier)
    capacity = q_multiplier * config.size
    program = trace.program

    with obs.span("build_trg_select"):
        select, select_stats = build_trg(
            procedure_refs(trace, popular), program.size_of, capacity
        )

    def chunk_byte_size(chunk: ChunkId) -> int:
        return program[chunk.procedure].chunk_size_of(
            chunk.index, chunk_size
        )

    with obs.span("build_trg_place"):
        place, place_stats = build_trg(
            chunk_refs(trace, chunk_size, popular),
            chunk_byte_size,
            capacity,
        )
    return TRGPair(
        select=select,
        place=place,
        select_stats=select_stats,
        place_stats=place_stats,
        chunk_size=chunk_size,
    )


def build_trgs(
    trace: Trace,
    config: CacheConfig,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    popular: set[str] | None = None,
    q_multiplier: int = DEFAULT_Q_MULTIPLIER,
) -> TRGPair:
    """Build ``TRG_select`` and ``TRG_place`` from one trace.

    Both working sets are bounded by ``q_multiplier`` times the cache
    size, following the paper's empirical choice of twice the cache
    size.  The graphs come from the vectorized kernel, bit-exact with
    :func:`build_trgs_scalar`.  The :mod:`repro.profiles.fast` import
    is deferred because that module imports this one.
    """
    validate_trg_params(chunk_size, q_multiplier)
    capacity = q_multiplier * config.size

    with obs.span(
        "build_trgs", chunk_size=chunk_size, q_capacity=capacity
    ):
        from repro.profiles.fast import build_trgs_fast

        pair = build_trgs_fast(
            trace,
            config,
            chunk_size=chunk_size,
            popular=popular,
            q_multiplier=q_multiplier,
        )
    obs.inc("trg.select.refs_processed", pair.select_stats.refs_processed)
    obs.inc("trg.place.refs_processed", pair.place_stats.refs_processed)
    obs.inc(
        "trg.qset.evictions",
        pair.select_stats.evictions + pair.place_stats.evictions,
    )
    obs.set_gauge("trg.select.edges", pair.select.num_edges())
    obs.set_gauge("trg.place.edges", pair.place.num_edges())
    return pair

