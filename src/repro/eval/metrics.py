"""Conflict metrics over whole placements (Section 3 and Figure 6).

A placement algorithm needs a *conflict metric* that is (approximately)
a linear function of the conflict misses a layout will suffer.  The
paper demonstrates (Figure 6) that its chunk-granularity TRG metric
correlates linearly with simulated misses while a WCG-based metric does
not.  This module evaluates both metrics for any finished layout and
provides the random layout damaging used to generate Figure 6's spread
of placements.
"""

from __future__ import annotations

import math
import random as _random
from typing import Sequence

from repro.cache.config import CacheConfig
from repro.errors import ConfigError
from repro.profiles.graph import ProfileGraph
from repro.program.layout import Layout
from repro.program.procedure import DEFAULT_CHUNK_SIZE, ChunkId


def _chunk_cache_lines(
    layout: Layout,
    chunk: ChunkId,
    config: CacheConfig,
    chunk_size: int,
) -> set[int]:
    return {
        line % config.num_lines
        for line in layout.chunk_lines(chunk, config, chunk_size)
    }


def trg_conflict_metric(
    layout: Layout,
    place_graph: ProfileGraph,
    config: CacheConfig,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> float:
    """TRG_place conflict cost of a whole layout.

    For every TRG_place edge ``(a, b, w)`` the layout pays ``w`` per
    cache line that chunks ``a`` and ``b`` share — the whole-placement
    analog of the Figure 4 merge cost.
    """
    cache: dict[ChunkId, set[int]] = {}

    def lines(chunk: ChunkId) -> set[int]:
        cached = cache.get(chunk)
        if cached is None:
            cached = _chunk_cache_lines(layout, chunk, config, chunk_size)
            cache[chunk] = cached
        return cached

    total = 0.0
    for a, b, weight in place_graph.edges():
        overlap = len(lines(a) & lines(b))
        if overlap:
            total += weight * overlap
    return total


def wcg_conflict_metric(
    layout: Layout,
    wcg: ProfileGraph,
    config: CacheConfig,
) -> float:
    """WCG-based conflict cost: edge weight per shared cache line.

    The procedure-granularity counterpart of
    :func:`trg_conflict_metric`, using call-transition counts.  This is
    the metric Figure 6 (bottom) shows to be a poor miss predictor.
    """
    cache: dict[str, set[int]] = {}

    def lines(name: str) -> set[int]:
        cached = cache.get(name)
        if cached is None:
            cached = {
                line % config.num_lines
                for line in layout.lines_of(name, config)
            }
            cache[name] = cached
        return cached

    total = 0.0
    for a, b, weight in wcg.edges():
        overlap = len(lines(a) & lines(b))
        if overlap:
            total += weight * overlap
    return total


def damage_layout(
    layout: Layout,
    candidates: Sequence[str],
    seed: int,
    max_moves: int = 50,
    config: CacheConfig | None = None,
) -> Layout:
    """Randomly re-align some procedures (the Figure 6 methodology).

    The paper generated its correlation scatter by "randomly selecting
    0-50 procedures in the GBSC placement and randomly changing their
    cache-relative offsets".  We move each selected procedure to the
    end of the layout at a uniformly random cache-line offset, which
    changes its cache mapping without overlapping anything.
    """
    if config is None:
        raise ConfigError("damage_layout requires the cache configuration")
    if max_moves < 0:
        raise ConfigError(f"max_moves must be >= 0, got {max_moves}")
    rng = _random.Random(seed)
    pool = [n for n in candidates if n in layout.program]
    count = rng.randint(0, min(max_moves, len(pool)))
    moved = rng.sample(pool, count)

    addresses = {
        name: layout.address_of(name) for name in layout.program.names
    }
    cursor = layout.text_end
    for name in moved:
        offset_lines = rng.randrange(config.num_lines)
        target = offset_lines * config.line_size
        address = cursor + (target - cursor) % config.size
        addresses[name] = address
        cursor = address + layout.program.size_of(name)
    return Layout(layout.program, addresses)


def pearson_r(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient (no scipy dependency needed)."""
    if len(xs) != len(ys):
        raise ConfigError("series must have equal length")
    n = len(xs)
    if n < 2:
        raise ConfigError("need at least two points for a correlation")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x == 0 or var_y == 0:
        return 0.0
    return cov / math.sqrt(var_x * var_y)
