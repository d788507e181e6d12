"""Profile auditors: TRGs, working set, pair database."""

from __future__ import annotations

from dataclasses import replace

from repro.analysis import (
    audit_graph,
    audit_pair_db,
    audit_profiles,
    audit_trgs,
    audit_working_set,
)
from repro.cache.config import PAPER_CACHE, CacheConfig
from repro.profiles.graph import WeightedGraph
from repro.profiles.pairdb import PairDatabase
from repro.profiles.qset import WorkingSet
from repro.profiles.trg import build_trgs


def rules_of(findings) -> set[str]:
    return {finding.rule for finding in findings}


class TestKnownGood:
    def test_real_profiles_are_clean(self, gbsc_run):
        context, _ = gbsc_run
        findings = audit_profiles(
            trgs=context.trgs,
            wcg=context.wcg,
            pair_db=context.pair_db,
            config=PAPER_CACHE,
            program=context.program,
        )
        assert findings == []

    def test_live_working_set_is_clean(self, tiny_cache):
        working_set = WorkingSet(2 * tiny_cache.size, lambda _b: 48)
        for block in "abcdefgh":
            working_set.reference(block)
        assert audit_working_set(working_set, tiny_cache) == []


class TestGraphCorruptions:
    def test_asymmetric_edge_reported(self):
        graph = WeightedGraph()
        graph.add_edge("p", "q", 4.0)
        graph._adj["p"]["q"] = 7.0  # corrupt one direction
        findings = audit_graph(graph)
        assert rules_of(findings) == {"profile/asymmetric-edge"}

    def test_negative_weight_reported(self):
        graph = WeightedGraph()
        graph.add_edge("p", "q", 1.0)
        graph._adj["p"]["q"] = -1.0
        graph._adj["q"]["p"] = -1.0
        findings = audit_graph(graph)
        assert rules_of(findings) == {"profile/negative-weight"}

    def test_nonfinite_weight_reported(self):
        graph = WeightedGraph()
        graph.add_edge("p", "q", 1.0)
        graph._adj["p"]["q"] = float("nan")
        rules = rules_of(audit_graph(graph))
        assert "profile/nonfinite-weight" in rules

    def test_self_edge_reported(self):
        graph = WeightedGraph()
        graph.add_node("p")
        graph._adj["p"]["p"] = 2.0
        rules = rules_of(audit_graph(graph))
        assert "profile/self-edge" in rules


class TestWorkingSetCorruptions:
    def test_over_capacity_q_reported(self, tiny_cache):
        """Entries stuffed past the bound without eviction running."""
        working_set = WorkingSet(
            2 * tiny_cache.size, lambda _b: tiny_cache.size
        )
        for block in ("a", "b", "c", "d"):
            working_set._append(block)  # bypass reference()'s eviction
        findings = audit_working_set(working_set, tiny_cache)
        assert rules_of(findings) == {"profile/q-capacity"}

    def test_wrong_capacity_bound_reported(self, tiny_cache):
        working_set = WorkingSet(5 * tiny_cache.size, lambda _b: 16)
        working_set.reference("a")
        findings = audit_working_set(working_set, tiny_cache)
        assert rules_of(findings) == {"profile/q-bound"}

    def test_accounting_mismatch_reported(self, tiny_cache):
        working_set = WorkingSet(2 * tiny_cache.size, lambda _b: 16)
        working_set.reference("a")
        working_set._total_size += 5
        findings = audit_working_set(working_set, tiny_cache)
        assert "profile/q-accounting" in rules_of(findings)


class TestTRGCorruptions:
    def build_pair(self, program, trace, config):
        return build_trgs(trace, config)

    def test_granularity_violation_reported(self, gbsc_run):
        context, _ = gbsc_run
        trgs = context.trgs
        # A procedure-name node smuggled into the chunk graph.
        place = trgs.place.copy()
        place.add_node("not-a-chunk")
        findings = audit_trgs(
            replace(trgs, place=place),
            config=PAPER_CACHE,
            program=context.program,
        )
        assert rules_of(findings) == {"profile/granularity"}

    def test_chunk_bounds_violation_reported(self, gbsc_run):
        from repro.program.procedure import ChunkId

        context, _ = gbsc_run
        trgs = context.trgs
        name = context.popular[0]
        place = trgs.place.copy()
        place.add_node(ChunkId(name, 10_000))
        findings = audit_trgs(
            replace(trgs, place=place),
            config=PAPER_CACHE,
            program=context.program,
        )
        assert rules_of(findings) == {"profile/chunk-bounds"}

    def test_granularity_mismatch_reported(self, tiny_cache):
        from repro.program.procedure import ChunkId

        from repro.profiles.trg import TRGBuildStats, TRGPair

        select = WeightedGraph()
        select.add_node("a")
        place = WeightedGraph()
        place.add_node(ChunkId("orphan", 0))
        trgs = TRGPair(
            select=select,
            place=place,
            select_stats=TRGBuildStats(1, 1.0),
            place_stats=TRGBuildStats(1, 1.0),
            chunk_size=256,
        )
        findings = audit_trgs(trgs)
        assert rules_of(findings) == {"profile/granularity-mismatch"}


class TestPairDatabase:
    def test_real_pair_db_round_trip(self):
        database = PairDatabase()
        database.record("p", ["r", "s", "t"])
        assert audit_pair_db(database) == []

    def test_self_pair_reported(self):
        database = PairDatabase()
        database.record("p", ["p", "r"])  # corrupt: endpoint leaked in
        findings = audit_pair_db(database)
        assert rules_of(findings) == {"profile/pair-self"}

    def test_degenerate_pair_reported(self):
        from collections import Counter

        database = PairDatabase()
        database.add_block("p")
        database._db["p"] = Counter({frozenset(("r",)): 3})
        findings = audit_pair_db(database)
        assert rules_of(findings) == {"profile/pair-arity"}

    def test_bad_count_reported(self):
        from collections import Counter

        database = PairDatabase()
        database.add_block("p")
        database._db["p"] = Counter({frozenset(("r", "s")): 0})
        findings = audit_pair_db(database)
        assert rules_of(findings) == {"profile/pair-count"}


class TestConfigMismatch:
    def test_trgs_built_for_other_cache_still_structurally_clean(self):
        """A structurally valid TRG pair audits clean even when the
        audited config differs — capacity lives in the working set,
        not the graphs."""
        config = CacheConfig(size=256, line_size=32)
        from repro.program.program import Program
        from repro.trace.events import TraceEvent
        from repro.trace.trace import Trace

        program = Program.from_sizes({"a": 64, "b": 64, "c": 64})
        events = [
            TraceEvent.full(name, program.size_of(name))
            for name in ("a", "b", "a", "c", "a")
        ]
        trace = Trace(program, events)
        trgs = build_trgs(trace, config)
        assert audit_trgs(trgs, config=config, program=program) == []
