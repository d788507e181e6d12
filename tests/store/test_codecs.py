"""Codec round trips: decode(encode(x)) == x, corrupt bytes raise."""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.config import PAPER_CACHE
from repro.errors import ReproError
from repro.eval.experiment import build_context
from repro.io import SerializationError, program_to_dict, write_npz
from repro.profiles.graph import FrozenGraph, WeightedGraph
from repro.profiles.trg import TRGBuildStats, TRGPair, build_trgs
from repro.program.procedure import ChunkId
from repro.program.program import Program
from repro.store import ArtifactStore, trace_content_fingerprint
from repro.store.codecs import (
    CODECS,
    decode_trace,
    decode_trgs,
    encode_trace,
    encode_trgs,
)
from repro.trace.events import TraceEvent
from repro.trace.trace import Trace
from repro.workloads.suite import by_name

REPO = Path(__file__).resolve().parents[2]

#: A store holding one ``trg`` entry, m88ksim x0.02 under the paper
#: cache, written before built graphs were frozen.  Copy it before
#: opening; never write into it.
TRG_STORE_V2 = REPO / "tests" / "data" / "trg_store_v2"

#: sha256 of ``encode_trgs`` of m88ksim x0.5's training TRGs (paper
#: cache, popular set), as written before built graphs were frozen.
M88KSIM_HALF_TRG_BLOB = (
    "5c94cbd93e8b871a4f27e66f078653300118e217daab14ebb9eaead1e4e10dc8"
)


@pytest.fixture(scope="module")
def trace():
    from repro.workloads import suite as suite_module
    from repro.workloads.spec import clear_trace_memo

    clear_trace_memo()
    return suite_module.by_name("m88ksim").scaled(0.02).trace("train")


def assert_same_trace(restored, trace) -> None:
    assert restored.program == trace.program
    assert np.array_equal(restored.proc_indices, trace.proc_indices)
    assert np.array_equal(restored.extent_starts, trace.extent_starts)
    assert np.array_equal(restored.extent_lengths, trace.extent_lengths)
    assert trace_content_fingerprint(restored) == trace_content_fingerprint(
        trace
    )


def _boundary_trace(top: int) -> Trace:
    """A trace whose largest start and largest length are both *top*."""
    program = Program.from_sizes({"small": 8, "big": top + 1})
    return Trace(
        program,
        [
            TraceEvent("small", 0, 8),
            TraceEvent("big", top, 1),
            TraceEvent("big", 0, top),
        ],
    )


#: Traces on either side of each dtype boundary (named by their
#: largest start and length) → the dtype the trace codec stores their
#: ``starts`` and ``lengths`` in; ``procs`` is uint8 in all of them.
DTYPE_CASES = {
    "empty": (lambda: Trace(Program.from_sizes({"a": 8}), []), np.uint8),
    **{
        str(top): (lambda top=top: _boundary_trace(top), dtype)
        for top, dtype in (
            (255, np.uint8),
            (256, np.uint16),
            (65_535, np.uint16),
            (65_536, np.uint32),
            (2**32 - 1, np.uint32),
            (2**32, np.int64),
        )
    },
}


def _parent_blob(trace: Trace) -> bytes:
    """*trace* as blobs were written before the event arrays were
    narrowed: ``np.savez_compressed`` of the trace's own arrays, with
    int64 ``starts`` and ``lengths``."""
    buffer = io.BytesIO()
    np.savez_compressed(
        buffer,
        format=np.array("repro/trace"),
        version=np.array(1),
        program=np.array(json.dumps(program_to_dict(trace.program))),
        procs=np.asarray(trace.proc_indices),
        starts=np.asarray(trace.extent_starts),
        lengths=np.asarray(trace.extent_lengths),
    )
    return buffer.getvalue()


class TestTraceCodec:
    def test_round_trip(self, trace):
        restored = decode_trace(encode_trace(trace))
        assert_same_trace(restored, trace)

    @pytest.mark.parametrize("case", list(DTYPE_CASES))
    def test_dtype_boundaries_round_trip(self, case):
        build, dtype = DTYPE_CASES[case]
        trace = build()
        data = encode_trace(trace)
        members = _arrays(data)
        assert members["procs"].dtype == np.uint8
        assert members["starts"].dtype == members["lengths"].dtype == dtype
        assert_same_trace(decode_trace(data), trace)

    def test_parent_int64_blob_decodes(self, trace):
        data = _parent_blob(trace)
        assert _arrays(data)["starts"].dtype == np.int64
        assert_same_trace(decode_trace(data), trace)

    def test_truncated_blob_raises(self, trace):
        data = encode_trace(trace)
        with pytest.raises(SerializationError):
            decode_trace(data[: len(data) // 2])

    def test_non_npz_blob_raises(self):
        with pytest.raises(SerializationError):
            decode_trace(b"not a zip file")


class TestGraphCodecs:
    def test_trgs_round_trip(self, trace, paper_cache):
        pair = build_trgs(trace, paper_cache)
        restored = decode_trgs(encode_trgs(pair))
        assert restored.select == pair.select
        assert restored.place == pair.place
        assert restored.select_stats == pair.select_stats
        assert restored.place_stats == pair.place_stats
        assert restored.chunk_size == pair.chunk_size

    def test_wrong_format_raises(self, trace, paper_cache):
        with pytest.raises(SerializationError):
            decode_trgs(encode_trace(trace))
        with pytest.raises(SerializationError):
            decode_trace(encode_trgs(build_trgs(trace, paper_cache)))
        with pytest.raises(SerializationError):
            decode_trgs(b'{"format":"repro/store-trgs"}')


class TestStoreCompatibility:
    """Frozen graphs write and read the blobs dict graphs did."""

    def test_m88ksim_half_trg_blob_bytes_are_pinned(self):
        trace = by_name("m88ksim").scaled(0.5).trace("train")
        blob = encode_trgs(build_context(trace, PAPER_CACHE).trgs)
        assert hashlib.sha256(blob).hexdigest() == M88KSIM_HALF_TRG_BLOB

    def test_older_store_serves_trg_hits_equal_to_a_fresh_build(
        self, tmp_path
    ):
        root = tmp_path / "store"
        shutil.copytree(TRG_STORE_V2, root)
        store = ArtifactStore(root)
        train = by_name("m88ksim").scaled(0.02).trace("train")
        stored = build_context(train, PAPER_CACHE, store=store).trgs
        assert (store.hits, store.misses) == (1, 0)
        fresh = build_context(train, PAPER_CACHE).trgs
        for restored, built in (
            (stored.select, fresh.select),
            (stored.place, fresh.place),
        ):
            assert isinstance(restored, FrozenGraph)
            assert restored == built
            assert rows(restored) == rows(built)
        assert stored.select_stats == fresh.select_stats
        assert stored.place_stats == fresh.place_stats


# ----------------------------------------------------------------------
# Exact round trips for arbitrary graphs
# ----------------------------------------------------------------------

names = st.text(
    alphabet=st.characters(exclude_characters="\x00"), max_size=6
)
nodes = st.one_of(
    names, st.builds(ChunkId, names, st.integers(0, 2**40))
)
weights = st.floats(min_value=0.0, max_value=1e12, allow_nan=False)


@st.composite
def graphs(draw) -> WeightedGraph:
    """A graph built the way the profilers build one: isolated nodes
    and edges added in any order, weights summed on repeats."""
    graph = WeightedGraph()
    pool = draw(st.lists(nodes, max_size=12, unique=True))
    for _ in range(draw(st.integers(0, 30)) if len(pool) > 1 else 0):
        a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        if a == b:
            graph.add_node(a)
        else:
            graph.add_edge(a, b, draw(weights))
    return graph


stats = st.builds(
    TRGBuildStats,
    st.integers(0, 2**40),
    st.floats(min_value=0.0, max_value=1e9),
    st.integers(0, 2**40),
)


def rows(graph) -> list:
    """Node order and every row's items, in order."""
    return [
        (node, [(other, graph.weight(node, other)) for other in graph.neighbors(node)])
        for node in graph.nodes
    ]


class TestExactRoundTrip:
    @settings(max_examples=75, deadline=None)
    @given(
        select=graphs(),
        place=graphs(),
        select_stats=stats,
        place_stats=stats,
        chunk_size=st.integers(1, 4096),
    )
    def test_trgs(self, select, place, select_stats, place_stats, chunk_size):
        pair = TRGPair(select, place, select_stats, place_stats, chunk_size)
        restored = decode_trgs(encode_trgs(pair))
        assert rows(restored.select) == rows(select)
        assert rows(restored.place) == rows(place)
        assert (restored.select, restored.place) == (select, place)
        assert restored.select_stats == select_stats
        assert restored.place_stats == place_stats
        assert restored.chunk_size == chunk_size

    def test_empty_values(self):
        empty = TRGBuildStats(0, 0.0, 0)
        pair = decode_trgs(
            encode_trgs(TRGPair(WeightedGraph(), WeightedGraph(), empty, empty, 32))
        )
        assert len(pair.select) == len(pair.place) == 0


_ENCODE_SCRIPT = """
import hashlib
from repro.cache.config import PAPER_CACHE
from repro.profiles.trg import build_trgs
from repro.store.codecs import encode_trace, encode_trgs
from repro.workloads.suite import by_name

trace = by_name("m88ksim").scaled(0.02).trace("train")
for blob in (
    encode_trace(trace),
    encode_trgs(build_trgs(trace, PAPER_CACHE)),
):
    print(hashlib.sha256(blob).hexdigest())
"""


def test_blob_bytes_do_not_depend_on_the_hash_seed():
    """Two processes with different string hashing write the same
    trace and trg bytes."""
    digests = []
    for seed in ("0", "1"):
        env = {
            **os.environ,
            "PYTHONHASHSEED": seed,
            "PYTHONPATH": str(REPO / "src"),
        }
        result = subprocess.run(
            [sys.executable, "-c", _ENCODE_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=300,
        )
        digests.append(result.stdout.split())
    assert len(digests[0]) == 2
    assert digests[0] == digests[1]


# ----------------------------------------------------------------------
# Malformed archives
# ----------------------------------------------------------------------


def _arrays(data: bytes) -> dict[str, np.ndarray]:
    with np.load(io.BytesIO(data), allow_pickle=False) as archive:
        return {name: archive[name] for name in archive.files}


def _rewrite(data: bytes, **changes) -> bytes:
    """*data* with arrays replaced (``None`` drops one)."""
    arrays = _arrays(data)
    form, version = str(arrays.pop("format")), int(arrays.pop("version"))
    form = changes.pop("format", form)
    for name, value in changes.items():
        if value is None:
            del arrays[name]
        else:
            arrays[name] = np.asarray(value)
    buffer = io.BytesIO()
    write_npz(buffer, form, version, arrays)
    return buffer.getvalue()


def _triangle_graph() -> WeightedGraph:
    graph = WeightedGraph()
    graph.add_edge("a", "b", 1.0)
    graph.add_edge("b", "c", 2.0)
    graph.add_edge("c", "a", 3.0)
    return graph


def _triangle() -> bytes:
    """A trg blob whose select graph is the triangle (place: empty)."""
    empty = TRGBuildStats(0, 0.0, 0)
    return encode_trgs(
        TRGPair(_triangle_graph(), WeightedGraph(), empty, empty, 32)
    )


def _select(**changes) -> bytes:
    """The triangle blob with select-graph arrays replaced."""
    return _rewrite(
        _triangle(),
        **{f"select_{name}": value for name, value in changes.items()},
    )


def _bare_npy() -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, np.arange(3))
    return buffer.getvalue()


# Row "a" is cols [1, 2]; row "b" is [0, 2]; row "c" is [1, 0].
MALFORMED_GRAPH = {
    "bare-npy": lambda: _bare_npy(),
    "wrong-format": lambda: _rewrite(_triangle(), format="repro/trace"),
    "missing-array": lambda: _select(col=None),
    "col-out-of-range": lambda: _select(col=[1, 2, 0, 9, 1, 0]),
    "col-negative": lambda: _select(col=[1, 2, 0, -1, 1, 0]),
    "negative-rowlen": lambda: _select(rowlen=[3, -1, 2]),
    "rowlen-sum": lambda: _select(rowlen=[2, 2, 1]),
    "rowlen-count": lambda: _select(rowlen=[2, 4]),
    "rowlen-unsigned-wraps": lambda: _select(
        rowlen=np.array([2**64 - 1, 2, 5], dtype=np.uint64)
    ),
    "self-edge": lambda: _select(col=[0, 2, 0, 2, 1, 0]),
    "negative-weight": lambda: _select(
        weight=[1.0, -3.0, 1.0, 2.0, 2.0, -3.0]
    ),
    "asymmetric-weight": lambda: _select(
        weight=[1.0, 3.0, 1.0, 2.0, 2.0, 4.0]
    ),
    "duplicate-neighbour": lambda: _select(col=[1, 1, 0, 2, 1, 0]),
    "weight-not-float": lambda: _select(weight=["x"] * 6),
    "chunk-below-minus-one": lambda: _select(chunks=[-1, -2, -1]),
    "names-not-text": lambda: _select(names=[1, 2, 3]),
    "repeated-node": lambda: _select(names=["a", "a", "c"]),
    "truncated": lambda: _triangle()[:40],
}


@pytest.mark.parametrize("case", sorted(MALFORMED_GRAPH))
def test_malformed_graph_blob_raises_repro_error(case):
    with pytest.raises(ReproError):
        decode_trgs(MALFORMED_GRAPH[case]())


def test_unsigned_row_lengths_decode():
    """``rowlen`` may be any integer dtype; uint64 used to reach
    ``np.repeat`` and fail with a ``TypeError``."""
    pair = decode_trgs(_select(rowlen=np.array([2, 2, 2], dtype=np.uint64)))
    assert rows(pair.select) == rows(_triangle_graph())


def test_self_edge_and_negative_weight_are_placement_errors():
    """The same errors :meth:`WeightedGraph.set_weight` raises."""
    from repro.errors import PlacementError

    with pytest.raises(PlacementError, match="self-edge"):
        decode_trgs(MALFORMED_GRAPH["self-edge"]())
    with pytest.raises(PlacementError, match="must be >= 0"):
        decode_trgs(MALFORMED_GRAPH["negative-weight"]())


def test_malformed_trgs_blob_raises_repro_error():
    empty = TRGBuildStats(0, 0.0, 0)
    graph = _triangle_graph()
    data = encode_trgs(TRGPair(graph, graph, empty, empty, 32))
    for change in (
        {"place_col": [1, 2, 0, 2, 1, 3]},
        {"chunk_size": [32, 32]},
        {"select_stats": None},
    ):
        with pytest.raises(ReproError):
            decode_trgs(_rewrite(data, **change))


class TestRegistry:
    def test_every_kind_has_a_codec_pair(self):
        assert set(CODECS) == {"trace", "trg"}
        for encode, decode in CODECS.values():
            assert callable(encode) and callable(decode)
