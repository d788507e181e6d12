"""Persistence for programs, traces, profiles and layouts.

A placement tool is only adoptable if its artifacts survive between
processes: profile once, place many times, ship the layout to a
linker.  This module serialises every pipeline artifact:

* **programs** and **layouts** — JSON (human-readable, diff-able);
* **traces** — compressed ``.npz`` (three integer arrays plus the
  program), through the one ``.npz`` codec :func:`write_npz` /
  :func:`read_npz` that the artifact store's blobs use too;
* **weighted graphs** (WCG/TRGs) — JSON with canonical edge order.

All writers produce deterministic output for identical inputs, and all
readers validate through the ordinary constructors, so a corrupt file
fails loudly rather than producing a silently-wrong layout.

Every writer is also **atomic**: content goes to a temporary file in
the destination directory, is fsynced, and only then renamed over the
final path with :func:`os.replace` — a process killed mid-write leaves
either the previous artifact or none, never a truncated one.  Readers
wrap the raw decoding errors of truncated or corrupt files (JSON,
zip/npz, missing keys) in :class:`SerializationError` naming the
offending path and the artifact kind that was expected there.

Every writer is also a registered **chaos write site**: it calls
:func:`repro.chaos.sites.fire` at each protocol point (before / data /
fsync / replace / after) under a stable ``site`` id, so io fault plans
can inject ``ENOSPC``, torn writes or simulated crashes at exactly one
named write.  See :mod:`repro.chaos` and docs/crash-consistency.md for
the recovery contract each failure mode guarantees.
"""

from __future__ import annotations

import json
import os
import tempfile
import zipfile
import zlib
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Any, BinaryIO, Iterable, Iterator, Mapping

import numpy as np

from repro.chaos.sites import fire as _chaos_fire
from repro.errors import ReproError, SimulatedCrash
from repro.profiles.graph import ProfileGraph, WeightedGraph
from repro.program.layout import Layout
from repro.program.procedure import ChunkId
from repro.program.program import Program
from repro.trace.trace import Trace

_FORMAT_VERSION = 1


class SerializationError(ReproError):
    """A file could not be read or written as the requested artifact."""


# ----------------------------------------------------------------------
# Atomic writes
# ----------------------------------------------------------------------


@contextmanager
def atomic_writer(
    path: str | Path,
    mode: str = "w",
    site: str = "io.atomic_writer",
) -> Iterator[Any]:
    """Write a file atomically: temp file, fsync, then ``os.replace``.

    Yields an open handle onto a temporary file in the *destination
    directory* (same filesystem, so the final rename is atomic).  On
    clean exit the data is flushed, fsynced and renamed over *path*;
    on any exception — including a failed fsync or rename, and
    :class:`BaseException` subclasses such as the fault harness's
    :class:`~repro.errors.SimulatedKill` or a ``KeyboardInterrupt`` —
    the temp file is removed and *path* is left untouched.  The one
    deliberate exception is :class:`~repro.errors.SimulatedCrash`,
    which models a power cut: cleanup is skipped so the ``*.tmp``
    file is stranded exactly as a real ``SIGKILL`` would leave it
    (``cache gc`` reclaims those).

    *site* is the chaos write-site id this write fires under; callers
    owning a registered surface pass their own id (lint-enforced, see
    ``conc/unregistered-write-site``).
    """
    if mode not in ("w", "wb"):
        raise SerializationError(
            f"atomic_writer supports modes 'w'/'wb', not {mode!r}"
        )
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    _chaos_fire(site, "before")
    fd, tmp_name = tempfile.mkstemp(
        dir=target.parent, prefix=f".{target.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(
            fd, mode, encoding="utf-8" if mode == "w" else None
        ) as handle:
            yield handle
            _chaos_fire(site, "data", handle=handle)
            handle.flush()
            _chaos_fire(site, "fsync")
            os.fsync(handle.fileno())
        _chaos_fire(site, "replace")
        os.replace(tmp_name, target)
    except BaseException as error:
        if not isinstance(error, SimulatedCrash):
            with suppress(OSError):
                os.unlink(tmp_name)
        raise
    _chaos_fire(site, "after")


def atomic_write_text(
    path: str | Path, text: str, site: str = "io.atomic_writer"
) -> None:
    """Atomically replace *path* with *text* (UTF-8)."""
    with atomic_writer(path, "w", site=site) as handle:
        handle.write(text)


def atomic_write_bytes(
    path: str | Path, data: bytes, site: str = "io.atomic_writer"
) -> None:
    """Atomically replace *path* with *data*."""
    with atomic_writer(path, "wb", site=site) as handle:
        handle.write(data)


# ----------------------------------------------------------------------
# Programs
# ----------------------------------------------------------------------


def program_to_dict(program: Program) -> dict[str, Any]:
    return {
        "format": "repro/program",
        "version": _FORMAT_VERSION,
        "procedures": [
            {"name": proc.name, "size": proc.size} for proc in program
        ],
    }


def program_from_dict(data: dict[str, Any]) -> Program:
    _expect_format(data, "repro/program")
    try:
        return Program.from_sizes(
            {entry["name"]: entry["size"] for entry in data["procedures"]}
        )
    except (KeyError, TypeError) as error:
        raise SerializationError(
            f"malformed program payload: {error}"
        ) from error


def save_program(program: Program, path: str | Path) -> None:
    _write_json(path, program_to_dict(program), site="io.program")


def load_program(path: str | Path) -> Program:
    return _load_artifact(path, "program", program_from_dict)


# ----------------------------------------------------------------------
# Layouts
# ----------------------------------------------------------------------


def layout_to_dict(layout: Layout) -> dict[str, Any]:
    return {
        "format": "repro/layout",
        "version": _FORMAT_VERSION,
        "program": program_to_dict(layout.program),
        "addresses": {
            name: address for name, address in layout.items()
        },
    }


def layout_from_dict(data: dict[str, Any]) -> Layout:
    _expect_format(data, "repro/layout")
    program = program_from_dict(data["program"])
    try:
        return Layout(program, dict(data["addresses"]))
    except (KeyError, TypeError) as error:
        raise SerializationError(
            f"malformed layout payload: {error}"
        ) from error


def save_layout(layout: Layout, path: str | Path) -> None:
    _write_json(path, layout_to_dict(layout), site="io.layout")


def load_layout(path: str | Path) -> Layout:
    return _load_artifact(path, "layout", layout_from_dict)


# ----------------------------------------------------------------------
# Traces
# ----------------------------------------------------------------------


#: What reading a damaged ``.npz`` archive can raise;
#: :func:`read_npz` maps each to a :class:`SerializationError`.
_NPZ_READ_ERRORS = (
    OSError,
    EOFError,
    KeyError,
    TypeError,
    ValueError,
    zipfile.BadZipFile,
    zlib.error,
)


def write_npz(
    handle: BinaryIO,
    form: str,
    version: int,
    arrays: Mapping[str, np.ndarray],
    level: int | None = None,
) -> None:
    """Write *arrays* to *handle* as a compressed ``.npz`` archive
    tagged with ``format`` *form* and *version*.

    The one ``.npz`` encoder: trace files and every artifact-store
    blob use it.  It writes the zip as :func:`numpy.savez_compressed`
    does, one deflated ``<name>.npy`` member per array, but at deflate
    *level* (``None`` is zlib's default, and then the bytes equal
    ``savez_compressed``'s).  Identical arrays give identical bytes
    (every member carries zipfile's fixed timestamp), which content
    hashes of store blobs rely on.
    """
    members = {"format": np.array(form), "version": np.array(version)}
    members.update(arrays)
    with zipfile.ZipFile(
        handle,
        "w",
        zipfile.ZIP_DEFLATED,
        compresslevel=level,
        allowZip64=True,
    ) as archive:
        for name, array in members.items():
            with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
                np.lib.format.write_array(
                    member, np.asanyarray(array), allow_pickle=False
                )


def read_npz(
    source: str | Path | BinaryIO,
    form: str,
    version: int,
    names: Iterable[str],
) -> dict[str, np.ndarray]:
    """Inverse of :func:`write_npz`: the arrays named in *names*.

    Raises :class:`SerializationError` for a damaged archive, a bare
    ``.npy`` array, a ``format`` other than *form*, a ``version``
    other than *version*, or a missing array; the caller adds the
    source to the message.
    """
    try:
        payload = np.load(source, allow_pickle=False)
        if not isinstance(payload, np.lib.npyio.NpzFile):
            raise SerializationError(
                "not an npz archive (a bare .npy array)"
            )
        with payload:
            found = str(payload["format"]) if "format" in payload else None
            if found != form:
                raise SerializationError(
                    f"not a {form!r} archive (format {found!r})"
                )
            if "version" not in payload or int(payload["version"]) != version:
                raise SerializationError(
                    f"unsupported {form} version "
                    f"(expected {version})"
                )
            missing = [name for name in names if name not in payload]
            if missing:
                raise SerializationError(
                    f"{form} archive lacks array(s) {missing}"
                )
            return {name: payload[name] for name in names}
    except _NPZ_READ_ERRORS as error:
        raise SerializationError(f"unreadable npz archive: {error}") from error


_TRACE_ARRAYS = ("program", "procs", "starts", "lengths")

#: Deflate level of trace archives: level 1 encodes about 4x faster
#: than zlib's default, and narrowed event arrays stay smaller than
#: int64 ones at the default level (docs/performance.md).
_TRACE_LEVEL = 1


def _narrowest(array: np.ndarray) -> np.ndarray:
    """Non-negative *array* as the narrowest unsigned dtype holding
    its maximum (uint8, uint16 or uint32), else int64."""
    top = int(array.max()) if len(array) else 0
    dtype = np.min_scalar_type(top) if top <= 0xFFFFFFFF else np.int64
    return array.astype(dtype, copy=False)


def write_trace_npz(trace: Trace, handle: BinaryIO) -> None:
    """Write *trace* to *handle* in the ``repro/trace`` ``.npz``
    layout (program embedded as JSON).

    The event arrays, non-negative by :class:`Trace`'s checks, are
    stored in their narrowest unsigned dtype at deflate level 1;
    :func:`read_trace_npz` accepts any integer dtype, so the decoded
    trace is the same whatever dtype an archive holds.
    """
    write_npz(
        handle,
        "repro/trace",
        _FORMAT_VERSION,
        {
            "program": np.array(
                json.dumps(program_to_dict(trace.program))
            ),
            "procs": _narrowest(trace.proc_indices),
            "starts": _narrowest(trace.extent_starts),
            "lengths": _narrowest(trace.extent_lengths),
        },
        level=_TRACE_LEVEL,
    )


def read_trace_npz(source: str | Path | BinaryIO) -> Trace:
    """Inverse of :func:`write_trace_npz`, from a path or binary file.

    Any damage — an unreadable archive, another format, a bad
    embedded program, an event array that is not 1-D integers — raises
    :class:`SerializationError`, which the caller words for its own
    source.
    """
    arrays = read_npz(source, "repro/trace", _FORMAT_VERSION, _TRACE_ARRAYS)
    for name in ("procs", "starts", "lengths"):
        array = arrays[name]
        if array.ndim != 1 or array.dtype.kind not in "iu":
            raise SerializationError(
                f"malformed {name} array: expected 1-D integers, "
                f"got {array.ndim}-D {array.dtype}"
            )
    try:
        program = program_from_dict(json.loads(str(arrays["program"])))
    except json.JSONDecodeError as error:
        raise SerializationError(
            f"malformed embedded program: {error}"
        ) from error
    return Trace.from_arrays(
        program, arrays["procs"], arrays["starts"], arrays["lengths"]
    )


def save_trace(trace: Trace, path: str | Path) -> None:
    """Write a trace as compressed npz (program embedded as JSON)."""
    with atomic_writer(path, "wb", site="io.trace") as handle:
        write_trace_npz(trace, handle)


def load_trace(path: str | Path) -> Trace:
    try:
        return read_trace_npz(path)
    except SerializationError as error:
        raise SerializationError(
            f"cannot load trace artifact from {path}: {error}"
        ) from error


# ----------------------------------------------------------------------
# Weighted graphs (WCG / TRG)
# ----------------------------------------------------------------------


def node_to_json(node: Any) -> Any:
    """JSON form of a graph node (a procedure name or a :class:`ChunkId`)
    in the ``repro/graph`` format."""
    if isinstance(node, ChunkId):
        return {"procedure": node.procedure, "index": node.index}
    if isinstance(node, str):
        return node
    raise SerializationError(
        f"cannot serialise graph node of type {type(node).__name__}"
    )


def node_from_json(payload: Any) -> Any:
    """Inverse of :func:`node_to_json`."""
    if isinstance(payload, str):
        return payload
    if isinstance(payload, dict):
        try:
            return ChunkId(payload["procedure"], payload["index"])
        except (KeyError, TypeError) as error:
            raise SerializationError(
                f"malformed chunk node: {payload!r}"
            ) from error
    raise SerializationError(f"malformed graph node: {payload!r}")


def graph_to_dict(graph: ProfileGraph) -> dict[str, Any]:
    nodes = sorted(graph.nodes, key=repr)
    edges = sorted(graph.edges(), key=lambda e: (repr(e[0]), repr(e[1])))
    return {
        "format": "repro/graph",
        "version": _FORMAT_VERSION,
        "nodes": [node_to_json(node) for node in nodes],
        "edges": [
            [node_to_json(a), node_to_json(b), weight]
            for a, b, weight in edges
        ],
    }


def graph_from_dict(data: dict[str, Any]) -> WeightedGraph:
    _expect_format(data, "repro/graph")
    graph = WeightedGraph()
    try:
        for node in data["nodes"]:
            graph.add_node(node_from_json(node))
        for a, b, weight in data["edges"]:
            graph.set_weight(
                node_from_json(a), node_from_json(b), float(weight)
            )
    except (KeyError, TypeError, ValueError) as error:
        raise SerializationError(
            f"malformed graph payload: {error}"
        ) from error
    return graph


def save_graph(graph: ProfileGraph, path: str | Path) -> None:
    _write_json(path, graph_to_dict(graph), site="io.graph")


def load_graph(path: str | Path) -> WeightedGraph:
    return _load_artifact(path, "graph", graph_from_dict)


# ----------------------------------------------------------------------
# Shared plumbing
# ----------------------------------------------------------------------


def _expect_format(data: dict[str, Any], expected: str) -> None:
    if not isinstance(data, dict) or data.get("format") != expected:
        raise SerializationError(
            f"payload is not {expected!r} "
            f"(found format={data.get('format')!r})"
            if isinstance(data, dict)
            else f"payload is not {expected!r}"
        )
    if data.get("version") != _FORMAT_VERSION:
        raise SerializationError(
            f"unsupported {expected} version {data.get('version')!r}"
        )


def _write_json(
    path: str | Path,
    payload: dict[str, Any],
    site: str = "io.atomic_writer",
) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    atomic_write_text(path, text + "\n", site=site)


def _read_json(path: str | Path, kind: str = "artifact") -> Any:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as error:
        raise SerializationError(
            f"cannot read {kind} artifact from {path}: {error}"
        ) from error


def _load_artifact(path: str | Path, kind: str, from_dict: Any) -> Any:
    """Load + validate a JSON artifact, naming *path* and *kind* in
    every failure."""
    data = _read_json(path, kind)
    try:
        return from_dict(data)
    except SerializationError as error:
        raise SerializationError(
            f"{path}: not a valid {kind} artifact: {error}"
        ) from error
