"""Top-level simulation entry point.

``simulate(layout, trace, config)`` is the one call the rest of the
library uses: it derives the fetch stream and replays it through the
exact model for the given geometry.  :func:`cache_model` is the only
place that choice is made — the vectorized direct-mapped and 2-way LRU
kernels, the scalar LRU model for three or more ways — and it hands
back both forms of the chosen model.  :func:`simulate_stream` needs
only a miss count, so it calls the model's count function;
:func:`repro.cache.hierarchy.simulate_hierarchy` needs each level's
misses as the next level's stream, so it calls the per-access flags
(through :func:`miss_flags`).  The scalar
:class:`~repro.cache.direct.DirectMappedCache` and
:class:`~repro.cache.setassoc.SetAssociativeCache` are the test
references for the vectorized kernels, not runtime options.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from repro import obs
from repro.cache.config import CacheConfig
from repro.cache.fast import (
    count_direct_mapped_misses,
    count_two_way_lru_misses,
    direct_mapped_miss_flags,
    two_way_lru_miss_flags,
)
from repro.cache.linetrace import LineStream, line_stream
from repro.cache.setassoc import lru_miss_flags
from repro.cache.stats import MissStats
from repro.program.layout import Layout
from repro.trace.trace import Trace

#: ``(lines, config) -> per-access miss booleans`` in stream order.
MissFlags = Callable[[np.ndarray, CacheConfig], np.ndarray]

#: ``(lines, config) -> number of misses``.
MissCount = Callable[[np.ndarray, CacheConfig], int]


class CacheModel(NamedTuple):
    """One exact cache model: its span name and its two forms."""

    engine: str
    flags: MissFlags
    count: MissCount


def _count_lru_misses(lines: np.ndarray, config: CacheConfig) -> int:
    """Number of misses through the scalar LRU model."""
    return int(lru_miss_flags(lines, config).sum())


def cache_model(config: CacheConfig) -> CacheModel:
    """The exact model for *config*'s geometry, with its span name.

    Associativity 1 runs the vectorized direct-mapped kernels
    (``"fast"``).  Set-associative geometries are ``"lru"``:
    associativity 2 runs the vectorized 2-way kernels, anything larger
    the scalar LRU model.
    """
    if config.is_direct_mapped:
        return CacheModel(
            "fast", direct_mapped_miss_flags, count_direct_mapped_misses
        )
    if config.associativity == 2:
        return CacheModel(
            "lru", two_way_lru_miss_flags, count_two_way_lru_misses
        )
    return CacheModel("lru", lru_miss_flags, _count_lru_misses)


def miss_flags(lines: np.ndarray, config: CacheConfig) -> np.ndarray:
    """Per-access miss booleans (stream order) under *config*."""
    return cache_model(config).flags(lines, config)


def simulate_stream(stream: LineStream, config: CacheConfig) -> MissStats:
    """Replay a pre-computed line stream through the geometry's model."""
    model = cache_model(config)
    with obs.span(
        "simulate", engine=model.engine, line_accesses=len(stream.lines)
    ):
        stats = MissStats(
            fetches=stream.fetches,
            line_accesses=len(stream.lines),
            misses=model.count(stream.lines, config),
        )
    obs.inc("cache.sim.accesses", stats.line_accesses)
    obs.inc("cache.sim.misses", stats.misses)
    obs.inc("cache.sim.hits", stats.hits)
    obs.inc("cache.sim.fetches", stats.fetches)
    obs.set_gauge("cache.sim.last_miss_rate", stats.miss_rate)
    return stats


def simulate(layout: Layout, trace: Trace, config: CacheConfig) -> MissStats:
    """Simulate the instruction-cache behaviour of *trace* under *layout*."""
    return simulate_stream(line_stream(layout, trace, config), config)
