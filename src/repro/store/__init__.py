"""Persistent content-addressed caching of pipeline artifacts.

Every grid cell of ``compare``/``table1`` needs the same expensive
derived data — synthetic traces and TRGs — and without a cache
each process rebuilds them from scratch.  This package
makes those artifacts persistent: an :class:`ArtifactStore` directory
keyed by sha256 fingerprints of each artifact's full input closure
(program/workload config + trace parameters + builder version salt),
with atomic writes and a JSON index.

The cache is an *optimisation layer only*: results are byte-identical
with the cache hot, cold, or disabled, which the parity tests enforce.
Three modules:

* :mod:`repro.store.fingerprint` — canonical-JSON sha256 keys and the
  :data:`~repro.store.fingerprint.BUILDER_SALTS` invalidation knob;
* :mod:`repro.store.codecs` — per-kind byte encoders/decoders reusing
  the :mod:`repro.io` formats;
* :mod:`repro.store.store` — the store itself (index, blobs,
  ``get_or_build``, ``stats``, ``gc``).

See ``docs/caching.md`` for the user-facing contract.
"""

from repro.store.codecs import (
    CODECS,
    decode_trace,
    decode_trgs,
    encode_trace,
    encode_trgs,
)
from repro.store.fingerprint import (
    BUILDER_SALTS,
    artifact_digest,
    builder_salt,
    canonical_json,
    config_key,
    fingerprint,
    trace_content_fingerprint,
    trg_key,
)
from repro.store.store import (
    ENTRY_FIELDS,
    INDEX_NAME,
    STORE_FORMAT,
    STORE_VERSION,
    ArtifactStore,
    blob_relpath,
)

__all__ = [
    "ArtifactStore",
    "BUILDER_SALTS",
    "CODECS",
    "ENTRY_FIELDS",
    "INDEX_NAME",
    "STORE_FORMAT",
    "STORE_VERSION",
    "artifact_digest",
    "blob_relpath",
    "builder_salt",
    "canonical_json",
    "config_key",
    "decode_trace",
    "decode_trgs",
    "encode_trace",
    "encode_trgs",
    "fingerprint",
    "trace_content_fingerprint",
    "trg_key",
]
