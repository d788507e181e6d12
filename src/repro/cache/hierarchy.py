"""Multi-level instruction-cache simulation (Section 8 direction).

The paper plans to extend temporal-ordering techniques to "other
layers of the memory hierarchy"; the measurement prerequisite is a
hierarchy model.  ``simulate_hierarchy`` replays the fetch stream
through a list of cache levels: accesses that miss level *i* (in trace
order) form the reference stream of level *i+1* — the standard
miss-stream composition for non-inclusive hierarchies without
prefetching.

Each level's miss stream comes from the per-access miss flags of
:func:`repro.cache.simulator.miss_flags`, so a level runs the same model
``simulate`` would pick for its geometry.
"""

from __future__ import annotations

from repro.cache.config import CacheConfig
from repro.cache.linetrace import line_stream
from repro.cache.simulator import miss_flags
from repro.cache.stats import MissStats
from repro.errors import ConfigError
from repro.program.layout import Layout
from repro.trace.trace import Trace


def simulate_hierarchy(
    layout: Layout,
    trace: Trace,
    levels: list[CacheConfig],
) -> list[MissStats]:
    """Replay *trace* through a cache hierarchy; one MissStats per
    level.

    Level 1 sees every line touch; level *k+1* sees exactly the
    touches that missed level *k*, in order.  All levels must share the
    line size (a refill granularity model across differing line sizes
    is out of scope).
    """
    if not levels:
        raise ConfigError("need at least one cache level")
    line_size = levels[0].line_size
    for level in levels[1:]:
        if level.line_size != line_size:
            raise ConfigError(
                "all hierarchy levels must share one line size"
            )
    stream = line_stream(layout, trace, levels[0])
    lines = stream.lines
    fetches = stream.fetches
    results: list[MissStats] = []
    for level in levels:
        flags = miss_flags(lines, level)
        misses = int(flags.sum())
        results.append(
            MissStats(
                fetches=fetches,
                line_accesses=len(lines),
                misses=misses,
            )
        )
        lines = lines[flags]
    return results
