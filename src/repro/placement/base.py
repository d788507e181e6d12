"""Shared interface for placement algorithms.

Every algorithm in the comparison (PH, HKC, GBSC and the trivial
baselines) consumes the same bundle of profile information — a
:class:`PlacementContext` — and produces a
:class:`~repro.program.layout.Layout`.  The context carries more than
any single algorithm needs (PH only reads the WCG; GBSC reads the TRGs)
so that the experiment harness can drive all algorithms uniformly and
perturb their inputs consistently (Section 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Protocol, runtime_checkable

from repro import obs
from repro.cache.config import CacheConfig
from repro.errors import PlacementError
from repro.profiles.graph import ProfileGraph
from repro.profiles.pairdb import PairDatabase
from repro.profiles.perturb import perturbed
from repro.profiles.trg import TRGPair
from repro.program.layout import Layout
from repro.program.program import Program


@dataclass(frozen=True)
class PlacementContext:
    """Everything a placement algorithm may consume.

    Attributes
    ----------
    program:
        The static program (procedure names and sizes).
    config:
        Target cache geometry.
    wcg:
        Transition-count weighted call graph (PH, HKC).
    trgs:
        Procedure- and chunk-granularity TRGs (GBSC); ``None`` when
        only WCG-based algorithms will run.
    popular:
        Popular procedures in decreasing dynamic-importance order.
    pair_db:
        Section 6 pair database (GBSC set-associative); optional.
    """

    program: Program
    config: CacheConfig
    wcg: ProfileGraph
    trgs: TRGPair | None = None
    popular: tuple[str, ...] = ()
    pair_db: PairDatabase | None = None

    def __post_init__(self) -> None:
        for name in self.popular:
            if name not in self.program:
                raise PlacementError(
                    f"popular procedure {name!r} is not in the program"
                )

    @property
    def popular_set(self) -> set[str]:
        return set(self.popular)

    def unpopular(self) -> list[str]:
        """Non-popular procedures, in program order."""
        popular = self.popular_set
        return [n for n in self.program.names if n not in popular]

    def require_trgs(self) -> TRGPair:
        if self.trgs is None:
            raise PlacementError(
                "this algorithm requires TRGs in the placement context"
            )
        return self.trgs

    def summary(self) -> dict[str, object]:
        """JSON-able description of the context for run manifests."""
        return {
            "procedures": len(self.program),
            "total_size": self.program.total_size,
            "popular": len(self.popular),
            "cache_size": self.config.size,
            "line_size": self.config.line_size,
            "associativity": self.config.associativity,
            "has_trgs": self.trgs is not None,
            "has_pair_db": self.pair_db is not None,
        }

    def require_pair_db(self) -> PairDatabase:
        if self.pair_db is None:
            raise PlacementError(
                "this algorithm requires the Section 6 pair database"
            )
        return self.pair_db

    def perturbed(self, scale: float, seed: int) -> "PlacementContext":
        """A copy with all profile graphs perturbed (Section 5.1).

        Each graph gets an independent stream derived from *seed* so
        algorithms reading different graphs see consistent but
        uncorrelated noise.
        """
        with obs.span("perturb"):
            new_wcg = perturbed(self.wcg, scale, seed)
            new_trgs = self.trgs
            if self.trgs is not None:
                new_trgs = replace(
                    self.trgs,
                    select=perturbed(self.trgs.select, scale, seed + 1),
                    place=perturbed(self.trgs.place, scale, seed + 2),
                )
        return replace(self, wcg=new_wcg, trgs=new_trgs)


@runtime_checkable
class PlacementAlgorithm(Protocol):
    """A procedure-placement algorithm."""

    @property
    def name(self) -> str:
        """Short identifier used in reports ("PH", "HKC", "GBSC", ...)."""
        ...

    def place(self, context: PlacementContext) -> Layout:
        """Produce a layout for ``context.program``."""
        ...
