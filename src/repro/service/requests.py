"""Request dataclasses and the algorithm registry for the library API.

A :class:`PlacementRequest` names everything ``repro-layout place``
used to assemble inline: the training trace (given directly, as a
saved ``.npz`` path, or as a suite workload name), the placement
engine, the cache geometry, an optional shared artifact store and an
optional soft deadline.  Validation happens up front and raises
:class:`~repro.errors.ServiceError`, so both the CLI and the HTTP
frontend report bad requests the same way (exit 2 / HTTP 400) before
any expensive profiling starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from repro.cache.config import PAPER_CACHE, CacheConfig
from repro.core.gbsc import GBSCPlacement
from repro.errors import ServiceError
from repro.placement.base import PlacementAlgorithm
from repro.placement.hkc import HashemiKaeliCalderPlacement
from repro.placement.identity import DefaultPlacement
from repro.placement.ph import PettisHansenPlacement
from repro.store import ArtifactStore
from repro.trace.trace import Trace
from repro.workloads.spec import Workload
from repro.workloads.suite import by_name

def _trg_opt_factory() -> PlacementAlgorithm:
    from repro.placement.localsearch import TRGOptimizerPlacement

    return TRGOptimizerPlacement(start_from=GBSCPlacement())


def _txd_factory() -> PlacementAlgorithm:
    from repro.placement.logical import LogicalCachePlacement

    return LogicalCachePlacement()


#: Engine name -> zero-argument factory.  The single registry behind
#: ``repro-layout place --algorithm`` and the service's ``algorithm``
#: request field (the heavyweight comparators stay lazily imported).
ALGORITHMS = {
    "default": DefaultPlacement,
    "ph": PettisHansenPlacement,
    "hkc": HashemiKaeliCalderPlacement,
    "gbsc": GBSCPlacement,
    "trg-opt": _trg_opt_factory,
    "txd": _txd_factory,
}


def check_algorithm(name: str) -> None:
    """Reject a placement engine name that is not registered."""
    if not isinstance(name, str) or name not in ALGORITHMS:
        raise ServiceError(
            f"unknown placement algorithm {name!r} "
            f"(choose from {', '.join(sorted(ALGORITHMS))})"
        )


def make_algorithm(name: str) -> PlacementAlgorithm:
    """Instantiate the placement engine registered under *name*."""
    check_algorithm(name)
    return ALGORITHMS[name]()


def check_deadline(deadline: float | None) -> None:
    """Reject a soft deadline that is not a positive, finite number of
    seconds (``None`` means no deadline)."""
    if deadline is None:
        return
    if not isinstance(deadline, (int, float)) or isinstance(
        deadline, bool
    ):
        raise ServiceError(
            f"deadline must be a number of seconds, got {deadline!r}"
        )
    try:
        finite = math.isfinite(deadline)
    except OverflowError:  # an int beyond float range
        raise ServiceError(
            "deadline must be finite, got an integer beyond float range"
        ) from None
    if not finite:
        raise ServiceError(f"deadline must be finite, got {deadline!r}")
    if deadline <= 0:
        raise ServiceError(f"deadline must be positive, got {deadline!r}")


@dataclass(frozen=True)
class PlacementRequest:
    """One ``trace -> layout`` placement job.

    Exactly one trace source must be given: *trace* (an in-memory
    :class:`~repro.trace.trace.Trace`), *trace_path* (a saved ``.npz``)
    or *workload* (a suite name resolved via
    :func:`repro.workloads.suite.by_name`, with *which* selecting the
    train or test input).
    """

    trace: Trace | None = None
    trace_path: str | Path | None = None
    workload: str | None = None
    which: str = "train"
    algorithm: str = "gbsc"
    config: CacheConfig = PAPER_CACHE
    store: ArtifactStore | None = None
    deadline: float | None = None

    def validate(self) -> None:
        """Reject unusable requests with :class:`ServiceError`."""
        sources = [
            self.trace is not None,
            self.trace_path is not None,
            self.workload is not None,
        ]
        if sum(sources) != 1:
            raise ServiceError(
                "exactly one trace source required: trace, trace_path "
                "or workload"
            )
        if self.which not in ("train", "test"):
            raise ServiceError(
                f"which must be 'train' or 'test', got {self.which!r}"
            )
        check_algorithm(self.algorithm)
        check_deadline(self.deadline)

    def resolve_trace(self) -> Trace:
        """Materialise the training trace this request names."""
        if self.trace is not None:
            return self.trace
        if self.trace_path is not None:
            from repro.io import load_trace

            return load_trace(self.trace_path)
        assert self.workload is not None
        return by_name(self.workload).trace(self.which, store=self.store)


@dataclass(frozen=True)
class CompareRequest:
    """One algorithm-comparison run over a single workload."""

    workload: Workload | str
    config: CacheConfig = PAPER_CACHE
    runs: int = 0
    fast: bool = False
    store: ArtifactStore | None = None

    def validate(self) -> None:
        """Reject unusable requests with :class:`ServiceError`."""
        if not isinstance(self.runs, int) or isinstance(self.runs, bool):
            raise ServiceError(
                f"runs must be an integer, got {self.runs!r}"
            )
        if self.runs < 0:
            raise ServiceError(f"runs must be >= 0, got {self.runs}")

    def resolve_workload(self) -> Workload:
        """The workload to compare on (names resolve via the suite).

        A string resolves through :func:`repro.workloads.suite.by_name`
        and honours *fast* (4x shorter traces); an already-built
        :class:`~repro.workloads.spec.Workload` is used as given —
        the caller scaled it.
        """
        workload = self.workload
        if isinstance(workload, str):
            workload = by_name(workload)
            if self.fast:
                workload = workload.scaled(0.25)
        return workload


@dataclass(frozen=True)
class Table1Request:
    """One Table 1 statistics run over the whole suite."""

    config: CacheConfig = PAPER_CACHE
    fast: bool = False
    store: ArtifactStore | None = None
