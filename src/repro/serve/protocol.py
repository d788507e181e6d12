"""Wire protocol for the placement service: parsing and status codes.

Everything HTTP-shaped but transport-free lives here — request
payload validation, the ``ReproError -> status code`` mapping and the
JSON error envelope — so :mod:`repro.serve.app` stays a plain object
that unit tests drive without sockets.

Status mapping
--------------

===============================================  ======
error                                            status
===============================================  ======
:class:`UnknownArtifact` (digest not in store)      404
:class:`~repro.errors.TaskTimeout` (deadline)       504
:class:`~repro.errors.StoreError` (backend)         500
any other :class:`~repro.errors.ReproError`         400
anything else (a genuine bug)                       500
===============================================  ======
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.cache.config import PAPER_CACHE, CacheConfig
from repro.errors import (
    ReproError,
    ServiceError,
    StoreError,
    TaskTimeout,
)
from repro.service.requests import check_algorithm, check_deadline

__all__ = [
    "DEFAULT_ALGORITHM",
    "MAX_BODY_BYTES",
    "HttpError",
    "PlaceSpec",
    "UnknownArtifact",
    "error_payload",
    "parse_place_payload",
    "status_for",
]

#: Upload bodies above this size are rejected with 413 before decoding.
MAX_BODY_BYTES = 64 * 1024 * 1024

DEFAULT_ALGORITHM = "gbsc"

#: JSON keys a ``POST /layouts`` body may carry.
PLACE_KEYS = ("trace", "algorithm", "cache", "deadline")

#: JSON keys the ``cache`` object may carry.
CACHE_KEYS = ("size", "line_size", "associativity")


class UnknownArtifact(ServiceError):
    """The request names a digest the store does not hold (404)."""


class HttpError(Exception):
    """A routing-level failure with an explicit status (404/405/413…).

    Not a :class:`~repro.errors.ReproError`: these never escape the
    HTTP handler, so the library error contract is unaffected.
    """

    def __init__(self, status: int, message: str) -> None:
        """Carry *status* alongside the human-readable *message*."""
        super().__init__(message)
        self.status = status


def status_for(error: BaseException) -> int:
    """The HTTP status an in-pipeline exception answers with."""
    if isinstance(error, HttpError):
        return error.status
    if isinstance(error, UnknownArtifact):
        return 404
    if isinstance(error, TaskTimeout):
        return 504
    if isinstance(error, StoreError):
        return 500
    if isinstance(error, ReproError):
        return 400
    return 500


def error_payload(
    status: int, error: BaseException
) -> dict[str, Any]:
    """The JSON error envelope every non-2xx response carries."""
    return {
        "error": {
            "status": status,
            "type": type(error).__name__,
            "message": str(error),
        }
    }


@dataclass(frozen=True)
class PlaceSpec:
    """A validated ``POST /layouts`` request body."""

    trace_digest: str
    algorithm: str
    config: CacheConfig
    deadline: float | None


def _require_mapping(payload: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(payload, Mapping):
        raise ServiceError(f"{what} must be a JSON object")
    return payload


def _reject_unknown_keys(
    payload: Mapping[str, Any], allowed: tuple[str, ...], what: str
) -> None:
    unknown = [key for key in sorted(payload) if key not in allowed]
    if unknown:
        raise ServiceError(
            f"unknown {what} key(s) {', '.join(unknown)} "
            f"(allowed: {', '.join(allowed)})"
        )


def _cache_config(payload: Any) -> CacheConfig:
    if payload is None:
        return PAPER_CACHE
    mapping = _require_mapping(payload, "'cache'")
    _reject_unknown_keys(mapping, CACHE_KEYS, "'cache'")
    geometry = {}
    for key, default in (
        ("size", PAPER_CACHE.size),
        ("line_size", PAPER_CACHE.line_size),
        ("associativity", PAPER_CACHE.associativity),
    ):
        value = mapping.get(key, default)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ServiceError(
                f"cache.{key} must be an integer, got {value!r}"
            )
        geometry[key] = value
    return CacheConfig(**geometry)


def parse_place_payload(
    payload: Any, default_deadline: float | None = None
) -> PlaceSpec:
    """Validate a ``POST /layouts`` JSON body into a :class:`PlaceSpec`.

    Raises :class:`~repro.errors.ServiceError` (mapped to 400) on any
    shape problem; cache geometry is validated by
    :class:`~repro.cache.config.CacheConfig` itself.
    """
    mapping = _require_mapping(payload, "place request")
    _reject_unknown_keys(mapping, PLACE_KEYS, "place request")
    digest = mapping.get("trace")
    if not isinstance(digest, str) or not digest:
        raise ServiceError(
            "place request needs 'trace': the digest returned by "
            "POST /traces"
        )
    algorithm = mapping.get("algorithm", DEFAULT_ALGORITHM)
    check_algorithm(algorithm)
    deadline = mapping.get("deadline", default_deadline)
    check_deadline(deadline)
    return PlaceSpec(
        trace_digest=digest,
        algorithm=algorithm,
        config=_cache_config(mapping.get("cache")),
        deadline=None if deadline is None else float(deadline),
    )
