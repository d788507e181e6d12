"""Tests for the top-level simulate() facade."""

import json

import pytest

from repro.cache.config import CacheConfig
from repro.cache.direct import DirectMappedCache
from repro.cache.setassoc import SetAssociativeCache
from repro.cache.simulator import simulate, simulate_stream
from repro.cache.linetrace import line_stream
from repro.obs import RunSession
from repro.program.layout import Layout
from repro.program.program import Program
from repro.trace.events import TraceEvent
from repro.trace.trace import Trace


@pytest.fixture
def setup():
    program = Program.from_sizes({"a": 128, "b": 128, "c": 64})
    layout = Layout.default(program)
    trace = Trace(
        program,
        [
            TraceEvent.full("a", 128),
            TraceEvent.full("b", 128),
            TraceEvent.full("a", 128),
            TraceEvent.full("c", 64),
        ],
    )
    config = CacheConfig(size=128, line_size=32)
    return program, layout, trace, config


def simulate_engines(path, layout, trace, configs) -> list[str]:
    """The ``engine`` attribute of each ``simulate`` span, in order."""
    session = RunSession("engines", metrics_out=path, with_git=False)
    try:
        for config in configs:
            simulate(layout, trace, config)
    finally:
        session.finish()
    records = [json.loads(line) for line in path.read_text().splitlines()]
    return [
        record["attributes"]["engine"]
        for record in records
        if record.get("type") == "span" and record["name"] == "simulate"
    ]


class TestEngines:
    def test_fast_and_reference_agree(self, setup):
        _, layout, trace, config = setup
        stream = line_stream(layout, trace, config)
        reference = DirectMappedCache(config).run(
            stream.lines, fetches=stream.fetches
        )
        assert simulate(layout, trace, config) == reference

    def test_lru_with_associativity_one_agrees(self, setup):
        _, layout, trace, config = setup
        stream = line_stream(layout, trace, config)
        lru = SetAssociativeCache(config).run(stream.lines)
        assert simulate(layout, trace, config).misses == lru.misses

    def test_auto_picks_fast_for_direct_mapped(self, setup, tmp_path):
        _, layout, trace, config = setup
        two_way = CacheConfig(size=128, line_size=32, associativity=2)
        engines = simulate_engines(
            tmp_path / "run.jsonl", layout, trace, [config, two_way]
        )
        assert engines == ["fast", "lru"]

    def test_auto_handles_set_associative(self, setup):
        _, layout, trace, _ = setup
        config = CacheConfig(size=128, line_size=32, associativity=2)
        stream = line_stream(layout, trace, config)
        stats = simulate(layout, trace, config)
        assert stats.misses > 0
        assert stats == SetAssociativeCache(config).run(
            stream.lines, fetches=stream.fetches
        )

    def test_unknown_engine_rejected(self, setup):
        """The engine is the geometry's, not a caller's choice."""
        _, layout, trace, config = setup
        with pytest.raises(TypeError):
            simulate(layout, trace, config, engine="fast")


class TestSemantics:
    def test_thrashing_layout_worse_than_separated(self, setup):
        """a and b alias fully in a 128-byte cache when placed one
        cache-size apart, and the trace alternates between them."""
        program, _, trace, config = setup
        aliased = Layout(program, {"a": 0, "b": 128, "c": 256})
        # In a 128-byte cache both a and b cover all 4 lines either
        # way; use a bigger cache to separate them.
        big = CacheConfig(size=256, line_size=32)
        separated = Layout(program, {"a": 0, "b": 128, "c": 256})
        conflicting = Layout(program, {"a": 0, "b": 256, "c": 512})
        good = simulate(separated, trace, big)
        bad = simulate(conflicting, trace, big)
        assert bad.misses > good.misses

    def test_stream_reuse(self, setup):
        _, layout, trace, config = setup
        stream = line_stream(layout, trace, config)
        direct = simulate(layout, trace, config)
        via_stream = simulate_stream(stream, config)
        assert direct == via_stream
