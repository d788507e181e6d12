"""Property tests: the vectorized TRG builder is bit-exact.

The fast kernels of :mod:`repro.profiles.fast` must reproduce the
scalar Section 3 pipeline — :func:`repro.profiles.trg.build_trg` fed
by :func:`~repro.profiles.trg.procedure_refs` /
:func:`~repro.profiles.trg.chunk_refs` — exactly: the same graphs
(nodes, edge weights, node insertion order), the same
:class:`~repro.profiles.trg.TRGBuildStats` including ``avg_q_entries``
and ``evictions``, across granularities, popularity filters and
q-multipliers.  Every Table 1 and placement result rests on that
equivalence.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.config import CacheConfig
from repro.errors import ConfigError
from repro.profiles.fast import (
    build_trg_fast,
    build_trgs_fast,
    chunk_ref_codes,
    procedure_ref_codes,
)
from repro.profiles.trg import (
    build_trg,
    build_trgs,
    build_trgs_scalar,
    chunk_refs,
    procedure_refs,
)
from repro.program.program import Program
from repro.trace.trace import Trace

# ----------------------------------------------------------------------
# Random-trace machinery
# ----------------------------------------------------------------------

#: Procedure size tables exercising both sides of every boundary:
#: sizes below/at/above the chunk size, and name sets whose repr order
#: differs from natural order (p2 vs p10).
SIZE_TABLES = st.sampled_from(
    [
        {"p1": 40, "p2": 96, "p10": 256, "p11": 300},
        {"a": 17, "b": 33, "c": 64, "d": 1000},
        {"main": 512, "helper": 48, "leaf": 16},
        {f"p{i}": 32 * (i + 1) for i in range(12)},
    ]
)


@st.composite
def random_traces(draw):
    """A random program plus a random extent trace over it."""
    sizes = draw(SIZE_TABLES)
    program = Program.from_sizes(sizes)
    names = list(sizes)
    n_events = draw(st.integers(0, 200))
    rng_seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(rng_seed)
    procs = rng.integers(0, len(names), size=n_events)
    size_arr = np.asarray([sizes[name] for name in names], dtype=np.int64)
    starts = (rng.random(n_events) * size_arr[procs]).astype(np.int64)
    max_len = size_arr[procs] - starts
    lengths = 1 + (rng.random(n_events) * max_len).astype(np.int64)
    lengths = np.minimum(lengths, max_len)
    trace = Trace.from_arrays(program, procs, starts, lengths)
    return trace


def popularity_filter(trace, keep_every):
    """An arbitrary popular subset (None = no filtering)."""
    if keep_every is None:
        return None
    names = trace.program.names
    return {name for i, name in enumerate(names) if i % keep_every == 0}


def decoded_stream(codes, labels_of):
    """Decode a code stream back to labels for the scalar builder."""
    return [labels_of[int(code)] for code in codes]


# ----------------------------------------------------------------------
# Stream-encoding parity: procedure_ref_codes / chunk_ref_codes
# ----------------------------------------------------------------------


@given(trace=random_traces(), keep_every=st.sampled_from([None, 1, 2, 3]))
@settings(max_examples=150, deadline=None)
def test_procedure_stream_matches_scalar(trace, keep_every):
    popular = popularity_filter(trace, keep_every)
    names = trace.program.names
    fast_stream = [
        names[code] for code in procedure_ref_codes(trace, popular).tolist()
    ]
    scalar_stream = list(procedure_refs(trace, popular))
    assert fast_stream == scalar_stream


@given(
    trace=random_traces(),
    keep_every=st.sampled_from([None, 1, 2]),
    chunk_size=st.sampled_from([16, 48, 100, 256]),
)
@settings(max_examples=150, deadline=None)
def test_chunk_stream_matches_scalar(trace, keep_every, chunk_size):
    from repro.profiles.fast import _chunk_geometry, _chunk_labels

    popular = popularity_filter(trace, keep_every)
    codes = chunk_ref_codes(trace, chunk_size, popular)
    base, _ = _chunk_geometry(trace.program, chunk_size)
    fast_stream = _chunk_labels(codes, base, trace.program.names)
    scalar_stream = list(chunk_refs(trace, chunk_size, popular))
    assert fast_stream == scalar_stream


# ----------------------------------------------------------------------
# Kernel parity: build_trg_fast vs build_trg on integer streams
# ----------------------------------------------------------------------


@given(
    codes=st.lists(st.integers(0, 15), max_size=300),
    capacity=st.sampled_from([1, 7, 64, 300, 10_000]),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=200, deadline=None)
def test_kernel_matches_scalar_on_integer_streams(codes, capacity, seed):
    rng = np.random.default_rng(seed)
    sizes_by_code = rng.integers(1, 80, size=16).astype(np.int64)
    stream = np.asarray(codes, dtype=np.int64)

    fast_graph, fast_stats = build_trg_fast(stream, sizes_by_code, capacity)
    scalar_graph, scalar_stats = build_trg(
        stream.tolist(), lambda code: int(sizes_by_code[code]), capacity
    )
    assert fast_graph == scalar_graph
    assert fast_stats == scalar_stats
    # Insertion (first-appearance) order is part of the contract: the
    # greedy algorithms iterate nodes in that order.
    assert fast_graph.nodes == scalar_graph.nodes


def test_kernel_empty_stream():
    graph, stats = build_trg_fast(
        np.empty(0, dtype=np.int64), np.ones(4, dtype=np.int64), 128
    )
    assert len(graph) == 0
    assert stats.refs_processed == 0
    assert stats.avg_q_entries == 0.0
    assert stats.evictions == 0


def test_kernel_rejects_non_positive_capacity():
    with pytest.raises(ConfigError):
        build_trg_fast(
            np.asarray([0, 1]), np.ones(2, dtype=np.int64), 0
        )


def test_kernel_rejects_non_positive_block_size():
    sizes = np.asarray([32, 0], dtype=np.int64)
    with pytest.raises(ConfigError):
        build_trg_fast(np.asarray([0, 1]), sizes, 128)


# ----------------------------------------------------------------------
# Full-pipeline parity: build_trgs_fast vs build_trgs_scalar
# ----------------------------------------------------------------------

CONFIGS = st.sampled_from(
    [
        CacheConfig(size=64, line_size=32),
        CacheConfig(size=256, line_size=32),
        CacheConfig(size=8192, line_size=32),
    ]
)


@given(
    trace=random_traces(),
    config=CONFIGS,
    chunk_size=st.sampled_from([16, 48, 256]),
    keep_every=st.sampled_from([None, 2]),
    q_multiplier=st.sampled_from([1, 2, 5]),
)
@settings(max_examples=100, deadline=None)
def test_pipeline_matches_scalar(
    trace, config, chunk_size, keep_every, q_multiplier
):
    popular = popularity_filter(trace, keep_every)
    fast = build_trgs_fast(
        trace,
        config,
        chunk_size=chunk_size,
        popular=popular,
        q_multiplier=q_multiplier,
    )
    scalar = build_trgs_scalar(
        trace,
        config,
        chunk_size=chunk_size,
        popular=popular,
        q_multiplier=q_multiplier,
    )
    assert fast.select == scalar.select
    assert fast.place == scalar.place
    assert fast.select_stats == scalar.select_stats
    assert fast.place_stats == scalar.place_stats
    assert fast.select.nodes == scalar.select.nodes
    assert fast.place.nodes == scalar.place.nodes
    assert fast.chunk_size == scalar.chunk_size


def test_build_trgs_dispatches_to_fast_by_default():
    program = Program.from_sizes({"a": 64, "b": 128})
    trace = Trace.from_arrays(
        program,
        np.asarray([0, 1, 0, 1]),
        np.asarray([0, 0, 0, 0]),
        np.asarray([64, 128, 64, 128]),
    )
    config = CacheConfig(size=64, line_size=32)
    default = build_trgs(trace, config)
    fast = build_trgs_fast(trace, config)
    scalar = build_trgs_scalar(trace, config)
    assert default.select == fast.select == scalar.select
    assert default.place == fast.place == scalar.place


def test_build_trgs_rejects_unknown_method():
    """The pipeline is not a caller's choice: the scalar twin is a
    test reference, not an option."""
    program = Program.from_sizes({"a": 64})
    trace = Trace.from_arrays(
        program, np.asarray([0]), np.asarray([0]), np.asarray([64])
    )
    with pytest.raises(TypeError):
        build_trgs(trace, CacheConfig(size=64, line_size=32), method="scalar")
