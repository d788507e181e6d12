"""Input-closure fingerprints for the artifact store.

A cached artifact is only safe to reuse when *everything* that went
into building it is identical: the program model, the trace
parameters, the builder's own configuration, and the builder's code
version.  This module reduces that closure to a canonical JSON
payload and hashes it with sha256.  Two processes computing the key
for the same inputs always produce the same digest — canonical JSON
is sorted, compactly separated, and bans NaN — so digests are stable
across processes, platforms and sessions.

Code versions are captured by :data:`BUILDER_SALTS`: one integer per
artifact kind, mixed into every digest.  Changing a builder in a way
that alters its output **must** bump the matching salt; every old
cache entry then misses and is rebuilt (see ``docs/caching.md``).

A generated trace is keyed by its recipe
(:func:`repro.trace.generator.trace_key`); everything else keys a
trace by :func:`trace_content_fingerprint` — a hash of its arrays and
program.  That content hash is the upstream component of every profile
key, so profile caching works identically for generated and
file-loaded traces.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np

from repro.cache.config import CacheConfig
from repro.errors import StoreError
from repro.trace.trace import Trace

#: Version salt per artifact kind.  Bump a value whenever the matching
#: builder's output changes; every existing cache entry of that kind
#: then becomes unreachable and is transparently rebuilt.  A trace is
#: keyed by its recipe, not its content, so the ``trace`` salt must be
#: bumped whenever the output of ``random_call_graph`` or of the trace
#: generator changes (the pinned suite trace digests in
#: ``tests/trace/test_generator.py`` fail when it does).
BUILDER_SALTS: dict[str, int] = {
    "trace": 1,
    "trg": 1,
}


def builder_salt(kind: str) -> int:
    """The version salt for *kind*; unknown kinds are a usage error."""
    try:
        return BUILDER_SALTS[kind]
    except KeyError:
        raise StoreError(
            f"unknown artifact kind {kind!r} "
            f"(expected one of {sorted(BUILDER_SALTS)})"
        ) from None


def canonical_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, compact separators, no NaN.

    The canonical form is what gets hashed, so it must not depend on
    dict insertion order, float repr quirks (``allow_nan=False``
    rejects the one non-round-trippable case), or locale.
    """
    try:
        return json.dumps(
            payload,
            sort_keys=True,
            separators=(",", ":"),
            allow_nan=False,
        )
    except (TypeError, ValueError) as error:
        raise StoreError(
            f"payload is not canonically serialisable: {error}"
        ) from error


def fingerprint(payload: Any) -> str:
    """sha256 hex digest of the canonical JSON form of *payload*."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def artifact_digest(kind: str, key: Any) -> str:
    """The store digest for an artifact: kind + version salt + key."""
    return fingerprint(
        {"kind": kind, "salt": builder_salt(kind), "key": key}
    )


# ----------------------------------------------------------------------
# Key components
# ----------------------------------------------------------------------


def trace_content_fingerprint(trace: Trace) -> str:
    """Content fingerprint of a trace: program + the three arrays.

    This is the upstream component of every profile key.  It hashes
    the trace's observable content rather than how it was obtained, so
    a trace loaded from an ``.npz`` file and the identical generated
    trace share profile cache entries.
    """
    digest = hashlib.sha256()
    program = [[proc.name, proc.size] for proc in trace.program]
    digest.update(canonical_json(program).encode())
    for array in (
        trace.proc_indices,
        trace.extent_starts,
        trace.extent_lengths,
    ):
        digest.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
    return digest.hexdigest()


def config_key(config: CacheConfig) -> list[int]:
    """The cache-geometry component of profile keys."""
    return [config.size, config.line_size, config.associativity]


def trg_key(
    trace_fingerprint: str,
    config: CacheConfig,
    chunk_size: int,
    popular: set[str] | None,
    q_multiplier: int,
) -> dict[str, Any]:
    """Cache key for a :func:`~repro.profiles.trg.build_trgs` pair."""
    return {
        "trace": trace_fingerprint,
        "cache": config_key(config),
        "chunk_size": chunk_size,
        "popular": sorted(popular) if popular is not None else None,
        "q_multiplier": q_multiplier,
    }

