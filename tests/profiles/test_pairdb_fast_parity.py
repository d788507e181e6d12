"""Property tests: the array pair database is bit-exact.

:func:`repro.profiles.fast.build_pair_database_fast` must reproduce the
scalar Section 6 builder,
:func:`repro.profiles.pairdb.build_pair_database` fed by
:func:`~repro.profiles.trg.procedure_refs`: the same registered
blocks, every block's pairs in the same (first-credit) order with the
same counts, and the same :class:`~repro.profiles.trg.TRGBuildStats`.
GBSC-SA's pair index reads ``pairs_for`` in that order, so the order
is part of the contract.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.config import PAPER_CACHE_2WAY
from repro.core.popular import select_popular
from repro.errors import ConfigError
from repro.profiles import fast
from repro.profiles.fast import build_pair_database_fast
from repro.profiles.pairdb import build_pair_database, get_or_build_pair_database
from repro.profiles.trg import procedure_refs
from repro.program.program import Program
from repro.trace.trace import Trace


def stream_trace(sizes: list[int], stream: list[int]) -> Trace:
    """A trace of whole-procedure extents following *stream*."""
    program = Program.from_sizes({f"p{i}": size for i, size in enumerate(sizes)})
    procs = np.asarray(stream, dtype=np.int64)
    lengths = np.asarray(sizes, dtype=np.int64)[procs]
    return Trace.from_arrays(program, procs, np.zeros_like(procs), lengths)


def assert_same_database(trace, popular, capacity):
    fast_db, fast_stats = build_pair_database_fast(trace, popular, capacity)
    scalar_db, scalar_stats = build_pair_database(
        procedure_refs(trace, popular), trace.program.size_of, capacity
    )
    assert fast_db.blocks == scalar_db.blocks
    for block in scalar_db.blocks:
        assert list(fast_db.pairs_for(block).items()) == list(
            scalar_db.pairs_for(block).items()
        ), block
    assert fast_stats == scalar_stats
    return fast_db, fast_stats


@st.composite
def code_streams(draw):
    """Procedure sizes plus a stream over them; a small alphabet makes
    re-references (hits) and long between-sets common."""
    sizes = draw(st.lists(st.integers(1, 300), min_size=1, max_size=12))
    stream = draw(
        st.lists(st.integers(0, len(sizes) - 1), max_size=250)
    )
    return sizes, stream


CAPACITIES = st.sampled_from([1, 40, 100, 256, 700, 4096, 10**9])


@given(
    streams=code_streams(),
    capacity=CAPACITIES,
    keep_every=st.sampled_from([None, 2]),
)
@settings(max_examples=200, deadline=None)
def test_matches_scalar(streams, capacity, keep_every):
    trace = stream_trace(*streams)
    popular = None
    if keep_every is not None:
        popular = set(trace.program.names[::keep_every])
    assert_same_database(trace, popular, capacity)


@given(streams=code_streams(), capacity=CAPACITIES)
@settings(max_examples=100, deadline=None)
def test_matches_scalar_across_tiny_batches(streams, capacity):
    """Batches of a few candidates split a key's credits, and a hit's
    rows, over many batches; first-credit order must survive."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fast, "_BATCH_CANDIDATES", 3)
        assert_same_database(stream_trace(*streams), None, capacity)


def test_empty_stream():
    database, stats = assert_same_database(stream_trace([64], []), None, 4096)
    assert database.blocks == set()
    assert stats.refs_processed == 0


def test_stream_without_hits():
    database, _ = assert_same_database(
        stream_trace([64] * 4, [0, 1, 2, 3]), None, 4096
    )
    assert database.total_records() == 0
    assert database.blocks == {"p0", "p1", "p2", "p3"}


def test_long_between_set():
    """A between-set of k = 24 blocks credits all 276 of its pairs."""
    stream = [0, *range(1, 25), 0, *range(1, 25), 0]
    database, _ = assert_same_database(stream_trace([32] * 25, stream), None, 10**6)
    assert len(database.pairs_for("p0")) == 24 * 23 // 2
    assert set(database.pairs_for("p0").values()) == {2}


def test_capacity_below_one_block():
    stream = [0, 1, 2, 0, 1, 2, 1, 0]
    database, stats = assert_same_database(
        stream_trace([64, 96, 128], stream), None, 1
    )
    assert database.total_records() == 0
    assert stats.evictions > 0


def test_first_credit_in_an_earlier_batch(monkeypatch):
    """One candidate per batch: the credits of ``(p0, {p1, p2})`` fall in
    different batches from the first one on, and the later pair
    ``{p2, p3}`` must still follow ``{p1, p2}``."""
    monkeypatch.setattr(fast, "_BATCH_CANDIDATES", 1)
    stream = [0, 1, 2, 0, 1, 2, 3, 0, 2, 3, 1, 0]
    database, _ = assert_same_database(stream_trace([32] * 4, stream), None, 10**6)
    assert list(database.pairs_for("p0"))[0] == frozenset({"p1", "p2"})


def test_rejects_non_positive_capacity():
    with pytest.raises(ConfigError):
        build_pair_database_fast(stream_trace([64], [0]), None, 0)


def test_m88ksim_train_trace():
    """The whole database the ``sa2-m88ksim`` workload places with."""
    from repro.workloads.suite import by_name

    trace = by_name("m88ksim").scaled(0.5).trace("train")
    popular = set(select_popular(trace).procedures)
    capacity = 2 * PAPER_CACHE_2WAY.size
    database, stats = assert_same_database(trace, popular, capacity)
    assert database.total_records() > 100_000
    served, served_stats = get_or_build_pair_database(trace, popular, capacity)
    assert served_stats == stats
    assert all(
        list(served.pairs_for(block).items())
        == list(database.pairs_for(block).items())
        for block in database.blocks
    )
