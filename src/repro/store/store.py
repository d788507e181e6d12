"""The persistent content-addressed artifact store.

Layout of a store directory::

    <root>/
      index.json            # format repro/store-index, entry per digest
      objects/<d[:2]>/<d>   # blob files, named by their input digest

The **digest** that addresses a blob is the sha256 fingerprint of the
artifact's full input closure (kind + builder version salt + key
payload, see :mod:`repro.store.fingerprint`), *not* of the blob bytes.
The index additionally records the sha256 of the blob content, so
reads detect corruption: a tampered or truncated blob hashes wrong,
counts as a miss, and is transparently rebuilt and overwritten.
A blob that fails its content hash **twice** for the same digest is
not silently rebuilt again: it is moved to ``objects/quarantine/``
(bounded, swept by gc) and counted in ``store.quarantined``, so
persistent corruption shows up in ``cache stats`` instead of being
masked as an endless stream of misses.

Write discipline mirrors the runner's single-writer journal design:

* every index and blob write is atomic
  (:func:`repro.io.atomic_writer` — temp file, fsync, rename);
* only the process that *opened* the store writes to it.  A forked
  child inherits the store object but fails the owner-pid check, so
  it can read (cache hits still decode) and silently skips writes.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import suppress
from pathlib import Path
from typing import Any, Callable

from repro import obs
from repro.errors import ReproError, StoreError
from repro.io import atomic_write_bytes, atomic_write_text
from repro.store.codecs import CODECS
from repro.store.fingerprint import artifact_digest

#: Name of the JSON index file inside a store directory.
INDEX_NAME = "index.json"

#: Directory (under the store root) holding quarantined blobs.
QUARANTINE_DIR = "objects/quarantine"

#: Content-hash failures for one digest before it is quarantined.
QUARANTINE_STRIKES = 2

#: Most quarantined blobs kept on disk; older ones are evicted first.
QUARANTINE_KEEP = 8

#: ``format`` field value of the index file.
STORE_FORMAT = "repro/store-index"

#: ``version`` field value of the index file.
STORE_VERSION = 1

#: Index-entry fields every well-formed entry must carry.
ENTRY_FIELDS = ("kind", "sha256", "file", "bytes", "seq")


def read_index(path: str | Path) -> dict[str, dict[str, Any]]:
    """The entries table of the store index at *path*; ``{}`` when the
    file is absent.

    Raises :class:`~repro.errors.StoreError` when the index cannot be
    read, is not JSON, or is not a ``repro/store-index`` v1 object
    with an entries table.
    """
    index = Path(path)
    if not index.exists():
        return {}
    try:
        data = json.loads(index.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as error:
        raise StoreError(
            f"unreadable store index {index}: {error}"
        ) from error
    if (
        not isinstance(data, dict)
        or data.get("format") != STORE_FORMAT
        or data.get("version") != STORE_VERSION
    ):
        raise StoreError(
            f"{index} is not a {STORE_FORMAT} v{STORE_VERSION} index"
        )
    entries = data.get("entries")
    if not isinstance(entries, dict):
        raise StoreError(f"{index} has no entries table")
    return entries


def blob_relpath(digest: str) -> str:
    """Blob location relative to the store root (2-char fan-out)."""
    return f"objects/{digest[:2]}/{digest}"


class ArtifactStore:
    """A content-addressed cache of pipeline artifacts.

    Parameters
    ----------
    root:
        Store directory; created on first write if absent.
    readonly:
        When true, every write is skipped (reads still work).  Writes
        are also skipped automatically in processes other than the one
        that constructed the store (a forked child).
    """

    def __init__(self, root: str | Path, readonly: bool = False) -> None:
        """Open (or lazily create) the store rooted at *root*."""
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise StoreError(f"store root {self.root} is not a directory")
        self._readonly = bool(readonly)
        self._owner_pid = os.getpid()
        self._index: dict[str, dict[str, Any]] = read_index(self.index_path)
        #: Content-hash failures per digest since its last quarantine.
        self._corrupt_reads: dict[str, int] = {}
        self.hits = 0
        self.misses = 0

    # -- index ---------------------------------------------------------

    @property
    def index_path(self) -> Path:
        """Path of the store's JSON index file."""
        return self.root / INDEX_NAME

    def _write_index(self) -> None:
        payload = {
            "format": STORE_FORMAT,
            "version": STORE_VERSION,
            "entries": self._index,
        }
        atomic_write_text(
            self.index_path,
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            site="store.index",
        )

    def _refresh(self) -> None:
        """Fold in entries another process added since we last read.

        The in-memory view wins on conflict (we know our own writes
        landed); a corrupt on-disk index is ignored here — the open
        already validated it, and refresh must not turn a read into a
        hard failure.
        """
        try:
            disk = read_index(self.index_path)
        except StoreError:
            return
        disk.update(self._index)
        self._index = disk

    # -- read/write ----------------------------------------------------

    @property
    def writable(self) -> bool:
        """True when this process may write (owner and not readonly)."""
        return not self._readonly and os.getpid() == self._owner_pid

    def blob_path(self, digest: str) -> Path:
        """Absolute path of the blob file for *digest*."""
        return self.root / blob_relpath(digest)

    @property
    def quarantine_path(self) -> Path:
        """Directory holding blobs that repeatedly failed their hash."""
        return self.root / QUARANTINE_DIR

    def get(self, digest: str) -> bytes | None:
        """Blob bytes for *digest*, or None when absent or corrupt.

        A corrupt read counts one strike against the digest; on the
        :data:`QUARANTINE_STRIKES`-th strike the blob is moved to
        quarantine (when writable) so the next build overwrites a
        clean slot instead of rediscovering the same corruption.
        """
        with obs.span("store.get") as record:
            data = self._read(digest)
            if record is not None:
                record.attributes["hit"] = int(data is not None)
        return data

    def _read(self, digest: str) -> bytes | None:
        entry = self._index.get(digest)
        if entry is None:
            self._refresh()
            entry = self._index.get(digest)
        if entry is None:
            return None
        try:
            data = self.blob_path(digest).read_bytes()
        except OSError:
            return None
        if hashlib.sha256(data).hexdigest() != entry.get("sha256"):
            obs.inc("store.corrupt")
            strikes = self._corrupt_reads.get(digest, 0) + 1
            self._corrupt_reads[digest] = strikes
            if strikes >= QUARANTINE_STRIKES and self.writable:
                self._quarantine(digest)
            return None
        return data

    def _quarantine(self, digest: str) -> None:
        """Move a persistently corrupt blob out of the object tree.

        The index entry is dropped (best effort — quarantine must not
        raise on a sick disk) and the quarantine directory is bounded:
        beyond :data:`QUARANTINE_KEEP` blobs, the lexically smallest
        digests are evicted first (deterministic, and good enough for
        a triage holding area).
        """
        destination = self.quarantine_path / digest
        try:
            destination.parent.mkdir(parents=True, exist_ok=True)
            os.replace(self.blob_path(digest), destination)
        except OSError:
            return
        obs.inc("store.quarantined")
        self._corrupt_reads.pop(digest, None)
        if digest in self._index:
            del self._index[digest]
            with suppress(OSError):
                self._write_index()
        held = sorted(
            path
            for path in self.quarantine_path.iterdir()
            if path.is_file()
        )
        for stale in held[: max(0, len(held) - QUARANTINE_KEEP)]:
            with suppress(OSError):
                stale.unlink()

    def put(
        self,
        digest: str,
        kind: str,
        data: bytes,
        key: Any = None,
    ) -> bool:
        """Store *data* under *digest*; returns False when read-only
        or when the write itself failed (full or failing disk) — the
        store is an optimisation, so a failed put degrades to "not
        cached" instead of aborting the build that produced *data*.

        The blob lands first, then the index is re-read, merged with
        the in-memory view and atomically replaced — two stores
        pointed at the same directory from separate processes converge
        instead of clobbering each other wholesale.
        """
        if not self.writable:
            return False
        with obs.span("store.put", bytes=len(data)):
            try:
                atomic_write_bytes(
                    self.blob_path(digest), data, site="store.blob"
                )
                self._refresh()
                sequence = 1 + max(
                    (entry.get("seq", 0) for entry in self._index.values()),
                    default=0,
                )
                self._index[digest] = {
                    "kind": kind,
                    "sha256": hashlib.sha256(data).hexdigest(),
                    "file": blob_relpath(digest),
                    "bytes": len(data),
                    "seq": sequence,
                    "key": key,
                }
                self._write_index()
            except OSError:
                obs.inc("store.write_failed")
                return False
        obs.inc("store.bytes", len(data))
        return True

    def get_or_build(
        self,
        kind: str,
        key: Any,
        build: Callable[[], Any],
    ) -> Any:
        """The cache-aware build primitive.

        Computes the input-closure digest for ``(kind, key)``, decodes
        and returns the cached artifact on a hit, otherwise calls
        *build*, stores the encoded result (when writable) and returns
        it.  A blob that fails its content hash or decoder counts as a
        miss; the rebuild overwrites it.
        """
        try:
            encode, decode = CODECS[kind]
        except KeyError:
            raise StoreError(
                f"no codec for artifact kind {kind!r} "
                f"(expected one of {sorted(CODECS)})"
            ) from None
        digest = artifact_digest(kind, key)
        data = self.get(digest)
        if data is not None:
            try:
                value = decode(data)
            except ReproError:
                value = None
            if value is not None:
                self.hits += 1
                obs.inc("store.hit")
                return value
        self.misses += 1
        obs.inc("store.miss")
        with obs.span("store.build", kind=kind):
            value = build()
        if self.writable:
            self.put(digest, kind, encode(value), key)
        return value

    # -- maintenance ---------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Persistent contents summary: entries, bytes, per-kind split.

        Also carries this session's access counters and the derived
        ``hit_rate`` (``None`` until something was actually looked
        up, so a fresh handle reports "no accesses" rather than 0%).
        """
        self._refresh()
        kinds: dict[str, dict[str, int]] = {}
        total = 0
        for entry in self._index.values():
            size = int(entry.get("bytes", 0))
            total += size
            bucket = kinds.setdefault(
                str(entry.get("kind", "?")), {"entries": 0, "bytes": 0}
            )
            bucket["entries"] += 1
            bucket["bytes"] += size
        accesses = self.hits + self.misses
        quarantined = 0
        if self.quarantine_path.is_dir():
            quarantined = sum(
                1
                for path in self.quarantine_path.iterdir()
                if path.is_file()
            )
        return {
            "root": str(self.root),
            "entries": len(self._index),
            "bytes": total,
            "kinds": {kind: kinds[kind] for kind in sorted(kinds)},
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / accesses if accesses else None,
            "quarantined": quarantined,
        }

    def record_metrics(self) -> None:
        """Publish store gauges into the active metrics registry."""
        summary = self.stats()
        obs.set_gauge("store.entries", summary["entries"])
        obs.set_gauge("store.stored_bytes", summary["bytes"])

    def gc(self, max_bytes: int | None = None) -> dict[str, int]:
        """Collect garbage; returns a summary of what was removed.

        Deterministic passes: drop index entries whose blob file is
        missing; when *max_bytes* is given, evict oldest entries
        (lowest insertion sequence) until the store fits; delete blob
        files no index entry references; purge the quarantine
        directory; and sweep orphan ``*.tmp`` files a crashed atomic
        write stranded anywhere under the root (counted in
        ``tmp_swept`` and the ``store.gc.tmp_swept`` metric).  Run gc
        only while no other process is writing the store.
        """
        if not self.writable:
            raise StoreError("gc requires a writable store")
        self._refresh()
        removed_entries = 0
        removed_blobs = 0
        freed = 0

        for digest in sorted(self._index):
            if not self.blob_path(digest).exists():
                del self._index[digest]
                removed_entries += 1

        if max_bytes is not None:
            total = sum(
                int(entry.get("bytes", 0))
                for entry in self._index.values()
            )
            by_age = sorted(
                self._index.items(), key=lambda item: item[1].get("seq", 0)
            )
            for digest, entry in by_age:
                if total <= max_bytes:
                    break
                size = int(entry.get("bytes", 0))
                try:
                    self.blob_path(digest).unlink()
                    removed_blobs += 1
                    freed += size
                except OSError:
                    pass
                del self._index[digest]
                removed_entries += 1
                total -= size
        self._write_index()

        referenced = {entry.get("file") for entry in self._index.values()}
        objects = self.root / "objects"
        if objects.is_dir():
            for blob in sorted(objects.glob("*/*")):
                if blob.parent == self.quarantine_path:
                    continue
                if blob.name.endswith(".tmp"):
                    continue  # the tmp sweep below owns these
                relative = blob.relative_to(self.root).as_posix()
                if relative in referenced:
                    continue
                try:
                    size = blob.stat().st_size
                    blob.unlink()
                except OSError:
                    continue
                removed_blobs += 1
                freed += size

        quarantined_removed = 0
        if self.quarantine_path.is_dir():
            for blob in sorted(self.quarantine_path.iterdir()):
                if not blob.is_file():
                    continue
                try:
                    size = blob.stat().st_size
                    blob.unlink()
                except OSError:
                    continue
                quarantined_removed += 1
                freed += size

        tmp_swept = 0
        if self.root.is_dir():
            for stale in sorted(self.root.rglob("*.tmp")):
                try:
                    stale.unlink()
                except OSError:
                    continue
                tmp_swept += 1
        if tmp_swept:
            obs.inc("store.gc.tmp_swept", tmp_swept)

        return {
            "removed_entries": removed_entries,
            "removed_blobs": removed_blobs,
            "freed_bytes": freed,
            "kept_entries": len(self._index),
            "kept_bytes": sum(
                int(entry.get("bytes", 0))
                for entry in self._index.values()
            ),
            "quarantined_removed": quarantined_removed,
            "tmp_swept": tmp_swept,
        }
