"""Byte codecs for store blobs.

Every artifact kind the store holds gets an ``encode`` (value →
``bytes``) and ``decode`` (``bytes`` → value) pair.  The codecs reuse
the :mod:`repro.io` serialisers — traces as compressed ``.npz``,
graphs as canonical JSON — so a blob is the same byte format as the
corresponding standalone artifact file, and decoding validates through
the ordinary constructors: a corrupt blob raises
:class:`~repro.io.SerializationError`, which the store treats as a
cache miss and rebuilds.
"""

from __future__ import annotations

import io as _stdio
import json
from dataclasses import asdict
from typing import Any

from repro.io import (
    NPZ_READ_ERRORS,
    SerializationError,
    graph_from_dict,
    graph_to_dict,
    node_from_json,
    node_to_json,
    read_trace_npz,
    write_trace_npz,
)
from repro.profiles.pairdb import PairDatabase
from repro.profiles.trg import TRGBuildStats, TRGPair
from repro.trace.trace import Trace

_BLOB_VERSION = 1


# ----------------------------------------------------------------------
# Traces (npz, through repro.io's one trace codec)
# ----------------------------------------------------------------------


def encode_trace(trace: Trace) -> bytes:
    """Serialise a trace to the compressed ``.npz`` byte format."""
    buffer = _stdio.BytesIO()
    write_trace_npz(trace, buffer)
    return buffer.getvalue()


def decode_trace(data: bytes) -> Trace:
    """Inverse of :func:`encode_trace`; validates via the constructor."""
    try:
        trace = read_trace_npz(_stdio.BytesIO(data))
    except NPZ_READ_ERRORS as error:
        raise SerializationError(
            f"cannot decode trace blob: {error}"
        ) from error
    if trace is None:
        raise SerializationError("blob is not a repro trace")
    return trace


# ----------------------------------------------------------------------
# JSON-payload kinds (graphs, TRG pairs, pair databases)
# ----------------------------------------------------------------------


def _json_bytes(payload: dict[str, Any]) -> bytes:
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode()


def _json_payload(data: bytes, expected: str) -> dict[str, Any]:
    try:
        payload = json.loads(data.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise SerializationError(
            f"cannot decode {expected} blob: {error}"
        ) from error
    if (
        not isinstance(payload, dict)
        or payload.get("format") != expected
        or payload.get("version") != _BLOB_VERSION
    ):
        raise SerializationError(f"blob is not {expected!r}")
    return payload


def encode_wcg(graph: Any) -> bytes:
    """Serialise a weighted graph (the WCG) to canonical JSON bytes."""
    return _json_bytes(
        {
            "format": "repro/store-wcg",
            "version": _BLOB_VERSION,
            "graph": graph_to_dict(graph),
        }
    )


def decode_wcg(data: bytes) -> Any:
    """Inverse of :func:`encode_wcg`."""
    payload = _json_payload(data, "repro/store-wcg")
    try:
        return graph_from_dict(payload["graph"])
    except KeyError as error:
        raise SerializationError("malformed wcg blob") from error


def _stats_from_json(payload: Any) -> TRGBuildStats:
    try:
        return TRGBuildStats(
            refs_processed=int(payload["refs_processed"]),
            avg_q_entries=float(payload["avg_q_entries"]),
            evictions=int(payload["evictions"]),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise SerializationError(
            f"malformed build stats: {error}"
        ) from error


def encode_trgs(pair: TRGPair) -> bytes:
    """Serialise a :class:`~repro.profiles.trg.TRGPair` to JSON bytes."""
    return _json_bytes(
        {
            "format": "repro/store-trgs",
            "version": _BLOB_VERSION,
            "chunk_size": pair.chunk_size,
            "select": graph_to_dict(pair.select),
            "place": graph_to_dict(pair.place),
            "select_stats": asdict(pair.select_stats),
            "place_stats": asdict(pair.place_stats),
        }
    )


def decode_trgs(data: bytes) -> TRGPair:
    """Inverse of :func:`encode_trgs`."""
    payload = _json_payload(data, "repro/store-trgs")
    try:
        return TRGPair(
            select=graph_from_dict(payload["select"]),
            place=graph_from_dict(payload["place"]),
            select_stats=_stats_from_json(payload["select_stats"]),
            place_stats=_stats_from_json(payload["place_stats"]),
            chunk_size=int(payload["chunk_size"]),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise SerializationError(
            f"malformed trgs blob: {error}"
        ) from error


def _node_sort_key(node_json: Any) -> str:
    return json.dumps(node_json, sort_keys=True)


def encode_pair_db(value: tuple[PairDatabase, TRGBuildStats]) -> bytes:
    """Serialise a ``(PairDatabase, TRGBuildStats)`` build result.

    Blocks and pairs are emitted in canonical (JSON-sorted) order so
    identical databases always produce identical bytes.
    """
    database, stats = value
    blocks = sorted(
        (node_to_json(block) for block in database.blocks),
        key=_node_sort_key,
    )
    pairs: list[list[Any]] = []
    for block_json in blocks:
        block = node_from_json(block_json)
        counter = database.pairs_for(block)
        if not counter:
            continue
        entries = []
        for pair, count in counter.items():
            members = sorted(
                (node_to_json(member) for member in pair),
                key=_node_sort_key,
            )
            if len(members) == 1:
                members = members * 2
            entries.append([members[0], members[1], count])
        entries.sort(key=lambda e: (_node_sort_key(e[0]), _node_sort_key(e[1])))
        pairs.append([block_json, entries])
    return _json_bytes(
        {
            "format": "repro/store-pairdb",
            "version": _BLOB_VERSION,
            "blocks": blocks,
            "pairs": pairs,
            "stats": asdict(stats),
        }
    )


def decode_pair_db(data: bytes) -> tuple[PairDatabase, TRGBuildStats]:
    """Inverse of :func:`encode_pair_db`."""
    payload = _json_payload(data, "repro/store-pairdb")
    database = PairDatabase()
    try:
        for block_json in payload["blocks"]:
            database.add_block(node_from_json(block_json))
        for block_json, entries in payload["pairs"]:
            block = node_from_json(block_json)
            for r_json, s_json, count in entries:
                database.set_pair_count(
                    block,
                    node_from_json(r_json),
                    node_from_json(s_json),
                    int(count),
                )
        stats = _stats_from_json(payload["stats"])
    except (KeyError, TypeError, ValueError) as error:
        raise SerializationError(
            f"malformed pairdb blob: {error}"
        ) from error
    return database, stats


#: kind → (encode, decode); the registry the cache-aware builders use.
CODECS: dict[str, tuple[Any, Any]] = {
    "trace": (encode_trace, decode_trace),
    "wcg": (encode_wcg, decode_wcg),
    "trg": (encode_trgs, decode_trgs),
    "pairdb": (encode_pair_db, decode_pair_db),
}
