"""Byte codecs for store blobs.

Every artifact kind the store holds gets an ``encode`` (value →
``bytes``) and ``decode`` (``bytes`` → value) pair.  Every blob is a
compressed ``.npz`` archive written and read by the one codec in
:mod:`repro.io` (:func:`~repro.io.write_npz`/:func:`~repro.io.read_npz`):

* a **trace** blob is the same bytes as a ``gen-trace`` file;
* a **TRG pair** holds each graph as a node table plus CSR rows in
  adjacency insertion order: a
  :class:`~repro.profiles.graph.FrozenGraph`'s own arrays, so a decoded
  graph equals the built one down to the order of its nodes and of
  every row, and neither direction builds a dict.

A **node table** is a name array plus a chunk-index array holding −1
for a procedure name and the index of a
:class:`~repro.program.procedure.ChunkId` otherwise.  Decoding checks
every array against the table (ids in range, row lengths summing to
the edge count) and rejects a self-edge or a negative weight as
:meth:`WeightedGraph.set_weight
<repro.profiles.graph.WeightedGraph.set_weight>` does.  Every failure
is a :class:`~repro.errors.ReproError`, which the store treats as a
cache miss and rebuilds.
"""

from __future__ import annotations

import io as _stdio
from dataclasses import astuple
from typing import Any, Mapping

import numpy as np

from repro.errors import PlacementError
from repro.io import (
    SerializationError,
    read_npz,
    read_trace_npz,
    write_npz,
    write_trace_npz,
)
from repro.profiles.graph import FrozenGraph, NodeTable, ProfileGraph, freeze
from repro.profiles.trg import TRGBuildStats, TRGPair
from repro.program.procedure import ChunkId
from repro.trace.trace import Trace

#: Version of the trg blob layout.  Version 1 was JSON; a
#: v1 blob no longer decodes, so the store rebuilds it at its digest.
_BLOB_VERSION = 2

Arrays = dict[str, np.ndarray]


def _encode(form: str, arrays: Mapping[str, np.ndarray]) -> bytes:
    buffer = _stdio.BytesIO()
    write_npz(buffer, form, _BLOB_VERSION, arrays)
    return buffer.getvalue()


def _decode(data: bytes, form: str, names: tuple[str, ...]) -> Arrays:
    try:
        return read_npz(_stdio.BytesIO(data), form, _BLOB_VERSION, names)
    except SerializationError as error:
        raise SerializationError(f"cannot decode {form} blob: {error}") from error


# ----------------------------------------------------------------------
# Traces
# ----------------------------------------------------------------------


def encode_trace(trace: Trace) -> bytes:
    """Serialise a trace to the compressed ``.npz`` byte format."""
    buffer = _stdio.BytesIO()
    write_trace_npz(trace, buffer)
    return buffer.getvalue()


def decode_trace(data: bytes) -> Trace:
    """Inverse of :func:`encode_trace`; validates via the constructor."""
    try:
        return read_trace_npz(_stdio.BytesIO(data))
    except SerializationError as error:
        raise SerializationError(
            f"cannot decode trace blob: {error}"
        ) from error


# ----------------------------------------------------------------------
# Array helpers: node tables, id checks, build stats
# ----------------------------------------------------------------------


def _node_table(nodes: list[Any], prefix: str) -> Arrays:
    names: list[str] = []
    chunks: list[int] = []
    for node in nodes:
        if isinstance(node, ChunkId):
            names.append(node.procedure)
            chunks.append(node.index)
        elif isinstance(node, str):
            names.append(node)
            chunks.append(-1)
        else:
            raise SerializationError(
                f"cannot serialise graph node of type {type(node).__name__}"
            )
    if "\x00" in "".join(names):
        # numpy's fixed-width strings drop trailing NULs.
        raise SerializationError("cannot serialise a node name with NUL")
    return {
        f"{prefix}names": np.array(names, dtype=str),
        f"{prefix}chunks": np.array(chunks, dtype=np.int64),
    }


def _nodes(arrays: Arrays, prefix: str) -> list[Any]:
    """Inverse of :func:`_node_table`; raises on a malformed node."""
    names = arrays[f"{prefix}names"]
    chunks = arrays[f"{prefix}chunks"]
    if (
        names.ndim != 1
        or names.dtype.kind != "U"
        or chunks.ndim != 1
        or chunks.dtype.kind not in "iu"
        or len(names) != len(chunks)
    ):
        raise SerializationError("malformed node table")
    if len(chunks) and chunks.min() < -1:
        raise SerializationError("malformed chunk node: negative index")
    nodes = [
        name if index < 0 else ChunkId(name, index)
        for name, index in zip(names.tolist(), chunks.tolist())
    ]
    if len(set(nodes)) != len(nodes):
        raise SerializationError("node table repeats a node")
    return nodes


def _ids(array: np.ndarray, bound: int, what: str) -> np.ndarray:
    """*array* as int64 ids, each in ``[0, bound)``."""
    if array.ndim != 1 or array.dtype.kind not in "iu":
        raise SerializationError(f"malformed {what} array")
    if len(array) and (array.min() < 0 or array.max() >= bound):
        raise SerializationError(
            f"{what} id outside the node table of {bound}"
        )
    return array.astype(np.int64, copy=False)


def _runs(rowlen: np.ndarray, rows: int, *columns: np.ndarray) -> np.ndarray:
    """Check CSR run lengths: one per row, none negative or longer than
    a column, summing to the length of every column.  Returns them as
    int64."""
    if rowlen.ndim != 1 or rowlen.dtype.kind not in "iu":
        raise SerializationError("malformed rowlen array")
    if len(rowlen) != rows:
        raise SerializationError(
            f"{len(rowlen)} row lengths for {rows} rows"
        )
    longest = max((len(column) for column in columns), default=0)
    if len(rowlen) and (rowlen.min() < 0 or rowlen.max() > longest):
        raise SerializationError("row length out of range")
    # Each length fits int64 now, so neither the cast nor the sum wraps.
    rowlen = rowlen.astype(np.int64)
    total = int(rowlen.sum())
    if any(column.ndim != 1 or len(column) != total for column in columns):
        raise SerializationError(
            f"row lengths sum to {total}, not the column lengths "
            f"{[len(column) for column in columns]}"
        )
    return rowlen


def _stats_arrays(stats: TRGBuildStats, prefix: str) -> Arrays:
    # (refs_processed, avg_q_entries, evictions); float64 holds the
    # two counts exactly.
    return {f"{prefix}stats": np.array(astuple(stats), dtype=np.float64)}


def _stats(arrays: Arrays, prefix: str) -> TRGBuildStats:
    values = arrays[f"{prefix}stats"]
    if values.shape != (3,) or values.dtype.kind != "f":
        raise SerializationError("malformed build stats")
    refs, average, evictions = values.tolist()
    return TRGBuildStats(int(refs), average, int(evictions))


# ----------------------------------------------------------------------
# Graphs (the two TRGs)
# ----------------------------------------------------------------------


def _graph_names(prefix: str) -> tuple[str, ...]:
    return tuple(
        prefix + name for name in ("names", "chunks", "rowlen", "col", "weight")
    )


def _graph_arrays(graph: ProfileGraph, prefix: str) -> Arrays:
    frozen = freeze(graph)
    return {
        **_node_table(frozen.nodes, prefix),
        f"{prefix}rowlen": np.diff(frozen.indptr),
        f"{prefix}col": frozen.indices.astype(np.int32),
        f"{prefix}weight": frozen.weights,
    }


def _graph(arrays: Arrays, prefix: str) -> FrozenGraph:
    """Inverse of :func:`_graph_arrays`, with every check."""
    nodes = _nodes(arrays, prefix)
    rowlen = arrays[f"{prefix}rowlen"]
    weight = arrays[f"{prefix}weight"]
    col = arrays[f"{prefix}col"]
    rowlen = _runs(rowlen, len(nodes), col, weight)
    col = _ids(col, len(nodes), "col")
    if weight.dtype.kind != "f":
        raise SerializationError("malformed weight array")
    row = np.repeat(np.arange(len(nodes)), rowlen)
    loops = np.flatnonzero(row == col)
    if len(loops):
        node = nodes[int(col[loops[0]])]
        raise PlacementError(f"self-edge on {node!r} is not allowed")
    negative = np.flatnonzero(weight < 0)
    if len(negative):
        raise PlacementError(
            f"edge weight must be >= 0, got {weight[negative[0]]}"
        )
    # Each edge sits once in each of its two rows, with one weight.
    forward = row * len(nodes) + col
    backward = col * len(nodes) + row
    ahead = np.argsort(forward)
    behind = np.argsort(backward)
    if not (
        np.array_equal(forward[ahead], backward[behind])
        and np.array_equal(weight[ahead], weight[behind], equal_nan=True)
        and np.all(np.diff(forward[ahead]))
    ):
        raise SerializationError("graph rows are not symmetric")
    indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
    np.cumsum(rowlen, out=indptr[1:])
    return FrozenGraph(
        NodeTable(nodes), indptr, col, weight.astype(np.float64, copy=False)
    )


_TRG_NAMES = (
    *_graph_names("select_"),
    *_graph_names("place_"),
    "select_stats",
    "place_stats",
    "chunk_size",
)


def encode_trgs(pair: TRGPair) -> bytes:
    """Serialise a :class:`~repro.profiles.trg.TRGPair` to ``.npz``
    bytes."""
    return _encode(
        "repro/store-trgs",
        {
            **_graph_arrays(pair.select, "select_"),
            **_graph_arrays(pair.place, "place_"),
            **_stats_arrays(pair.select_stats, "select_"),
            **_stats_arrays(pair.place_stats, "place_"),
            "chunk_size": np.array(pair.chunk_size, dtype=np.int64),
        },
    )


def decode_trgs(data: bytes) -> TRGPair:
    """Inverse of :func:`encode_trgs`."""
    arrays = _decode(data, "repro/store-trgs", _TRG_NAMES)
    chunk_size = arrays["chunk_size"]
    if chunk_size.shape != () or chunk_size.dtype.kind not in "iu":
        raise SerializationError("malformed chunk_size")
    return TRGPair(
        select=_graph(arrays, "select_"),
        place=_graph(arrays, "place_"),
        select_stats=_stats(arrays, "select_"),
        place_stats=_stats(arrays, "place_"),
        chunk_size=int(chunk_size),
    )


#: kind → (encode, decode); the registry the cache-aware builders use.
CODECS: dict[str, tuple[Any, Any]] = {
    "trace": (encode_trace, decode_trace),
    "trg": (encode_trgs, decode_trgs),
}
