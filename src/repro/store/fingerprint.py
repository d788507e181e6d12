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

Traces are keyed two ways:

* :func:`trace_key` — by *construction*: the call-graph content
  fingerprint plus the :class:`~repro.trace.generator.TraceInput`.
  Used to cache trace generation itself.
* :func:`trace_content_fingerprint` — by *content*: a hash of the
  trace's arrays and program.  Used as the upstream component of every
  profile key, so profile caching works identically for generated and
  file-loaded traces.
"""

from __future__ import annotations

import hashlib
import json
import weakref
from dataclasses import asdict
from typing import Any

import numpy as np

from repro.cache.config import CacheConfig
from repro.errors import StoreError
from repro.trace.callgraph import CallGraphModel
from repro.trace.generator import TraceInput
from repro.trace.trace import Trace

#: Version salt per artifact kind.  Bump a value whenever the matching
#: builder's output changes; every existing cache entry of that kind
#: then becomes unreachable and is transparently rebuilt.
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


#: Call-graph model -> its content fingerprint.  A model never changes
#: after construction, so each is hashed once however many traces of
#: it are keyed (a workload keys a train and a test trace).
_CALLGRAPH_DIGESTS: weakref.WeakKeyDictionary[CallGraphModel, str] = (
    weakref.WeakKeyDictionary()
)


def callgraph_fingerprint(graph: CallGraphModel) -> str:
    """Content fingerprint of a call-graph model.

    Hashes everything trace generation reads from the model — root,
    procedure names and sizes, call sites with weights, invocation
    means and body fractions — so hand-built and generated graphs key
    identically when they are behaviourally identical.  The digest is
    memoised per model object.
    """
    digest = _CALLGRAPH_DIGESTS.get(graph)
    if digest is None:
        digest = _CALLGRAPH_DIGESTS[graph] = _hash_callgraph(graph)
    return digest


def _hash_callgraph(graph: CallGraphModel) -> str:
    procedures = []
    for proc in graph.program:
        model = graph.model_of(proc.name)
        procedures.append(
            {
                "name": model.name,
                "size": model.procedure.size,
                "mean_invocations": model.mean_invocations,
                "body_fraction": model.body_fraction,
                "call_sites": [
                    [site.callee, site.weight]
                    for site in model.call_sites
                ],
            }
        )
    procedures.sort(key=lambda entry: entry["name"])
    return fingerprint({"root": graph.root, "procedures": procedures})


def trace_key(graph: CallGraphModel, inp: TraceInput) -> dict[str, Any]:
    """Cache key for trace *generation*: graph content + input knobs."""
    return {"graph": callgraph_fingerprint(graph), "input": asdict(inp)}


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

