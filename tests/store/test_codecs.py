"""Codec round trips: decode(encode(x)) == x, corrupt bytes raise."""

from __future__ import annotations

import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.io import SerializationError, write_npz
from repro.profiles.graph import WeightedGraph
from repro.profiles.trg import TRGBuildStats, TRGPair, build_trgs
from repro.profiles.wcg import build_wcg
from repro.program.procedure import ChunkId
from repro.store.codecs import (
    CODECS,
    decode_trace,
    decode_trgs,
    decode_wcg,
    encode_trace,
    encode_trgs,
    encode_wcg,
)

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def trace():
    from repro.workloads import suite as suite_module
    from repro.workloads.spec import clear_trace_memo

    clear_trace_memo()
    return suite_module.by_name("m88ksim").scaled(0.02).trace("train")


class TestTraceCodec:
    def test_round_trip(self, trace):
        restored = decode_trace(encode_trace(trace))
        assert restored.program == trace.program
        assert np.array_equal(restored.proc_indices, trace.proc_indices)
        assert np.array_equal(restored.extent_starts, trace.extent_starts)
        assert np.array_equal(
            restored.extent_lengths, trace.extent_lengths
        )

    def test_truncated_blob_raises(self, trace):
        data = encode_trace(trace)
        with pytest.raises(SerializationError):
            decode_trace(data[: len(data) // 2])

    def test_non_npz_blob_raises(self):
        with pytest.raises(SerializationError):
            decode_trace(b"not a zip file")


class TestGraphCodecs:
    def test_wcg_round_trip(self, trace):
        wcg = build_wcg(trace)
        assert decode_wcg(encode_wcg(wcg)) == wcg

    def test_trgs_round_trip(self, trace, paper_cache):
        pair = build_trgs(trace, paper_cache)
        restored = decode_trgs(encode_trgs(pair))
        assert restored.select == pair.select
        assert restored.place == pair.place
        assert restored.select_stats == pair.select_stats
        assert restored.place_stats == pair.place_stats
        assert restored.chunk_size == pair.chunk_size

    def test_wrong_format_raises(self, trace):
        wcg_bytes = encode_wcg(build_wcg(trace))
        with pytest.raises(SerializationError):
            decode_trgs(wcg_bytes)
        with pytest.raises(SerializationError):
            decode_wcg(b'{"format":"repro/store-wcg"}')


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


def rows(graph: WeightedGraph) -> list:
    """Node order and every row's items, in order."""
    return [(node, list(row.items())) for node, row in graph.rows()]


class TestExactRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(graph=graphs())
    def test_wcg(self, graph):
        restored = decode_wcg(encode_wcg(graph))
        assert rows(restored) == rows(graph)
        assert restored == graph

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
        assert restored.select_stats == select_stats
        assert restored.place_stats == place_stats
        assert restored.chunk_size == chunk_size

    def test_empty_values(self):
        empty = TRGBuildStats(0, 0.0, 0)
        assert rows(decode_wcg(encode_wcg(WeightedGraph()))) == []
        pair = decode_trgs(
            encode_trgs(TRGPair(WeightedGraph(), WeightedGraph(), empty, empty, 32))
        )
        assert len(pair.select) == len(pair.place) == 0


_ENCODE_SCRIPT = """
import hashlib
from repro.cache.config import PAPER_CACHE
from repro.profiles.trg import build_trgs
from repro.profiles.wcg import build_wcg
from repro.store.codecs import encode_trgs, encode_wcg
from repro.workloads.suite import by_name

trace = by_name("m88ksim").scaled(0.02).trace("train")
for blob in (
    encode_wcg(build_wcg(trace)),
    encode_trgs(build_trgs(trace, PAPER_CACHE)),
):
    print(hashlib.sha256(blob).hexdigest())
"""


def test_blob_bytes_do_not_depend_on_the_hash_seed():
    """Two processes with different string hashing write the same
    wcg and trg bytes."""
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


def _triangle() -> bytes:
    graph = WeightedGraph()
    graph.add_edge("a", "b", 1.0)
    graph.add_edge("b", "c", 2.0)
    graph.add_edge("c", "a", 3.0)
    return encode_wcg(graph)


def _bare_npy() -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, np.arange(3))
    return buffer.getvalue()


# Row "a" is cols [1, 2]; row "b" is [0, 2]; row "c" is [1, 0].
MALFORMED_WCG = {
    "bare-npy": lambda: _bare_npy(),
    "wrong-format": lambda: _rewrite(_triangle(), format="repro/store-trgs"),
    "missing-array": lambda: _rewrite(_triangle(), col=None),
    "col-out-of-range": lambda: _rewrite(_triangle(), col=[1, 2, 0, 9, 1, 0]),
    "col-negative": lambda: _rewrite(_triangle(), col=[1, 2, 0, -1, 1, 0]),
    "negative-rowlen": lambda: _rewrite(_triangle(), rowlen=[3, -1, 2]),
    "rowlen-sum": lambda: _rewrite(_triangle(), rowlen=[2, 2, 1]),
    "rowlen-count": lambda: _rewrite(_triangle(), rowlen=[2, 4]),
    "self-edge": lambda: _rewrite(_triangle(), col=[0, 2, 0, 2, 1, 0]),
    "negative-weight": lambda: _rewrite(
        _triangle(), weight=[1.0, -3.0, 1.0, 2.0, 2.0, -3.0]
    ),
    "asymmetric-weight": lambda: _rewrite(
        _triangle(), weight=[1.0, 3.0, 1.0, 2.0, 2.0, 4.0]
    ),
    "duplicate-neighbour": lambda: _rewrite(
        _triangle(), col=[1, 1, 0, 2, 1, 0]
    ),
    "weight-not-float": lambda: _rewrite(_triangle(), weight=["x"] * 6),
    "chunk-below-minus-one": lambda: _rewrite(_triangle(), chunks=[-1, -2, -1]),
    "names-not-text": lambda: _rewrite(_triangle(), names=[1, 2, 3]),
    "repeated-node": lambda: _rewrite(_triangle(), names=["a", "a", "c"]),
    "truncated": lambda: _triangle()[:40],
}


@pytest.mark.parametrize("case", sorted(MALFORMED_WCG))
def test_malformed_wcg_blob_raises_repro_error(case):
    with pytest.raises(ReproError):
        decode_wcg(MALFORMED_WCG[case]())


def test_self_edge_and_negative_weight_are_placement_errors():
    """The same errors :meth:`WeightedGraph.set_weight` raises."""
    from repro.errors import PlacementError

    with pytest.raises(PlacementError, match="self-edge"):
        decode_wcg(MALFORMED_WCG["self-edge"]())
    with pytest.raises(PlacementError, match="must be >= 0"):
        decode_wcg(MALFORMED_WCG["negative-weight"]())


def test_malformed_trgs_blob_raises_repro_error():
    empty = TRGBuildStats(0, 0.0, 0)
    graph = decode_wcg(_triangle())
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
        assert set(CODECS) == {"trace", "wcg", "trg"}
        for encode, decode in CODECS.values():
            assert callable(encode) and callable(decode)
