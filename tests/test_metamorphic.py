"""Metamorphic and cross-implementation properties of the pipeline.

These tests assert relationships that must hold between *pairs* of
runs — the strongest guards against silent simulator or profiling
bugs, because they do not depend on any hand-computed expected value.
"""

import random

import pytest
from hypothesis import given, settings

# The tolerance-based cache properties are not theorems; derandomize
# so the checked example set is fixed and the suite stays stable.
from hypothesis import strategies as st

from repro.cache.config import CacheConfig
from repro.cache.direct import DirectMappedCache
from repro.cache.linetrace import line_stream
from repro.cache.setassoc import SetAssociativeCache
from repro.cache.simulator import simulate
from repro.placement.ph import ph_order
from repro.profiles.graph import WeightedGraph
from repro.profiles.trg import build_trg
from repro.profiles.wcg import build_wcg_from_refs
from repro.program.layout import Layout
from repro.program.program import Program
from tests.conftest import full_trace


def random_program(rng: random.Random, n: int, line_size: int = 32):
    """Procedures with line-aligned sizes (for shift-invariance tests)."""
    return Program.from_sizes(
        {
            f"p{i}": line_size * rng.randint(1, 12)
            for i in range(n)
        }
    )


def random_trace(rng: random.Random, program: Program, length: int):
    names = list(program.names)
    return full_trace(
        program, [rng.choice(names) for _ in range(length)]
    )


class TestSimulatorMetamorphic:
    @given(seed=st.integers(0, 500))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_shift_by_cache_size_preserves_misses(self, seed):
        """Shifting a line-aligned layout by the cache size maps every
        procedure to the same sets with the same tags-per-set
        relationships, so miss counts are identical."""
        rng = random.Random(seed)
        config = CacheConfig(size=512, line_size=32)
        program = random_program(rng, 6)
        trace = random_trace(rng, program, 120)
        layout = Layout.random(program, seed=seed)
        shifted = layout.shifted(config.size)
        assert (
            simulate(layout, trace, config).misses
            == simulate(shifted, trace, config).misses
        )

    @given(seed=st.integers(0, 500))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_engines_agree_on_random_workloads(self, seed):
        rng = random.Random(seed)
        config = CacheConfig(size=256, line_size=32)
        program = random_program(rng, 5)
        trace = random_trace(rng, program, 100)
        layout = Layout.random(program, seed=seed + 1)
        stream = line_stream(layout, trace, config)
        fast = simulate(layout, trace, config)
        reference = DirectMappedCache(config).run(
            stream.lines, fetches=stream.fetches
        )
        lru = SetAssociativeCache(config).run(stream.lines)
        assert fast == reference
        assert fast.misses == lru.misses

    @given(seed=st.integers(0, 500))
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_fully_associative_lru_inclusion_property(self, seed):
        """LRU is a stack algorithm: a fully-associative LRU cache of
        larger capacity never misses more than a smaller one on the
        same stream.  (Note this is NOT true of set-associative
        geometry changes, which remap the sets.)"""
        rng = random.Random(seed)
        program = random_program(rng, 6)
        trace = random_trace(rng, program, 150)
        layout = Layout.random(program, seed=seed)
        small = simulate(
            layout,
            trace,
            CacheConfig(size=256, line_size=32, associativity=8),
        )
        large = simulate(
            layout,
            trace,
            CacheConfig(size=512, line_size=32, associativity=16),
        )
        assert large.misses <= small.misses

    @given(seed=st.integers(0, 300))
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_doubling_cache_size_never_more_misses_direct(self, seed):
        """A direct-mapped cache of double size with the same line size
        has strictly more sets; on our traces this should not increase
        misses (not a theorem — Belady anomalies exist for DM too —
        so allow a tiny tolerance)."""
        rng = random.Random(seed)
        program = random_program(rng, 6)
        trace = random_trace(rng, program, 150)
        layout = Layout.random(program, seed=seed)
        small = simulate(
            layout, trace, CacheConfig(size=256, line_size=32)
        )
        large = simulate(
            layout, trace, CacheConfig(size=512, line_size=32)
        )
        assert large.misses <= small.misses * 1.05

    @given(seed=st.integers(0, 300))
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_trace_concatenation_additivity_bound(self, seed):
        """Misses of a concatenated trace are at most the sum of the
        parts' misses (the second part can only gain from warm state,
        modulo the lines the first part left behind)."""
        rng = random.Random(seed)
        config = CacheConfig(size=256, line_size=32)
        program = random_program(rng, 5)
        layout = Layout.random(program, seed=seed)
        refs_a = [rng.choice(program.names) for _ in range(60)]
        refs_b = [rng.choice(program.names) for _ in range(60)]
        misses_a = simulate(
            layout, full_trace(program, refs_a), config
        ).misses
        misses_b = simulate(
            layout, full_trace(program, refs_b), config
        ).misses
        combined = simulate(
            layout, full_trace(program, refs_a + refs_b), config
        ).misses
        assert combined <= misses_a + misses_b


class TestProfileMetamorphic:
    @given(
        refs=st.lists(st.sampled_from("abcde"), min_size=2, max_size=120)
    )
    @settings(max_examples=50)
    def test_wcg_total_weight_counts_transitions(self, refs):
        graph = build_wcg_from_refs(refs)
        transitions = sum(
            1 for x, y in zip(refs, refs[1:]) if x != y
        )
        assert sum(w for _, _, w in graph.edges()) == transitions

    @given(
        refs=st.lists(st.sampled_from("abcd"), max_size=120),
        capacity=st.integers(1, 50),
    )
    @settings(max_examples=50)
    def test_trg_weight_bounded_by_references(self, refs, capacity):
        """Each reference credits each other block at most once, so no
        edge weight can exceed the total reference count."""
        graph, stats = build_trg(refs, lambda _b: 1, capacity)
        for _, _, weight in graph.edges():
            assert weight <= stats.refs_processed

    @given(
        refs=st.lists(st.sampled_from("abcd"), max_size=100),
    )
    @settings(max_examples=50)
    def test_trg_monotone_in_capacity(self, refs):
        """A larger Q can only see more interleavings: every edge
        weight under a small capacity is <= its weight under a large
        capacity."""
        small, _ = build_trg(refs, lambda _b: 1, capacity=2)
        large, _ = build_trg(refs, lambda _b: 1, capacity=100)
        for a, b, weight in small.edges():
            assert weight <= large.weight(a, b)


class TestPlacementMetamorphic:
    @given(seed=st.integers(0, 200))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_ph_order_is_permutation(self, seed):
        rng = random.Random(seed)
        program = Program.from_sizes(
            {f"p{i}": rng.randint(10, 200) for i in range(10)}
        )
        wcg = WeightedGraph()
        for _ in range(rng.randint(0, 25)):
            a, b = rng.sample(program.names, 2)
            wcg.add_edge(a, b, rng.randint(1, 50))
        order = ph_order(program, wcg)
        assert sorted(order) == sorted(program.names)

    @given(seed=st.integers(0, 100))
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_gbsc_layout_always_valid(self, seed):
        from repro.core.gbsc import GBSCPlacement
        from repro.placement.base import PlacementContext
        from repro.profiles.trg import build_trgs
        from repro.profiles.wcg import build_wcg

        rng = random.Random(seed)
        config = CacheConfig(size=256, line_size=32)
        program = Program.from_sizes(
            {f"p{i}": rng.randint(20, 400) for i in range(8)}
        )
        refs = [rng.choice(program.names) for _ in range(150)]
        trace = full_trace(program, refs)
        context = PlacementContext(
            program=program,
            config=config,
            wcg=build_wcg(trace),
            trgs=build_trgs(trace, config, chunk_size=64),
            popular=tuple(sorted(trace.touched_procedures())),
        )
        layout = GBSCPlacement().place(context)
        # Constructor validation + full coverage are the invariants.
        assert sorted(layout.order_by_address()) == sorted(program.names)
