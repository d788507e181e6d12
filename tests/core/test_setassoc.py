"""Tests for the Section 6 set-associative extension."""

import json
import random

import numpy as np
import pytest

from repro.cache.config import CacheConfig
from repro.cache.simulator import simulate
from repro.core.merge import MergeNode, PlacedProcedure
from repro.core.setassoc import (
    GBSCSetAssociativePlacement,
    merge_nodes_sa,
    sa_offset_costs,
    sa_offset_costs_reference,
)
from repro.errors import PlacementError
from repro.obs import RunSession
from repro.placement.base import PlacementContext
from repro.profiles.pairdb import PairDatabase, build_pair_database
from repro.profiles.trg import build_trgs, procedure_refs
from repro.profiles.wcg import build_wcg
from repro.program.program import Program
from tests.conftest import full_trace


@pytest.fixture
def config() -> CacheConfig:
    # 8 lines, 2-way -> 4 sets.
    return CacheConfig(size=256, line_size=32, associativity=2)


class TestSACosts:
    def test_triple_overlap_costs(self, config):
        """p conflicts with {r, s} only when all three share a set."""
        program = Program.from_sizes({"p": 32, "r": 32, "s": 32})
        db = PairDatabase()
        db.record("p", ["r", "s"])
        n1 = MergeNode.single("p")
        n2 = MergeNode(
            [PlacedProcedure("r", 0), PlacedProcedure("s", 0)]
        )
        costs = sa_offset_costs(n1, n2, db, program, config)
        # All three on set 0 only at shift 0 (mod 4 sets).
        assert costs[0] == pytest.approx(1.0)
        assert np.all(costs[1:] < 1e-9)

    def test_pair_split_no_cost(self, config):
        """If r and s never share a set, no pair conflict exists."""
        program = Program.from_sizes({"p": 32, "r": 32, "s": 32})
        db = PairDatabase()
        db.record("p", ["r", "s"])
        n1 = MergeNode.single("p")
        n2 = MergeNode(
            [PlacedProcedure("r", 0), PlacedProcedure("s", 1)]
        )
        costs = sa_offset_costs(n1, n2, db, program, config)
        assert np.all(costs < 1e-9)

    def test_symmetric_direction(self, config):
        """Pairs in n1 against a block in n2 also count."""
        program = Program.from_sizes({"p": 32, "r": 32, "s": 32})
        db = PairDatabase()
        db.record("p", ["r", "s"])
        n1 = MergeNode(
            [PlacedProcedure("r", 0), PlacedProcedure("s", 0)]
        )
        n2 = MergeNode.single("p")
        costs = sa_offset_costs(n1, n2, db, program, config)
        assert costs[0] == pytest.approx(1.0)

    def test_no_records_zero_cost(self, config):
        program = Program.from_sizes({"p": 32, "q": 32})
        costs = sa_offset_costs(
            MergeNode.single("p"),
            MergeNode.single("q"),
            PairDatabase(),
            program,
            config,
        )
        assert np.all(costs == 0)

    @pytest.mark.parametrize("seed", range(5))
    def test_fast_matches_reference(self, seed, config):
        rng = random.Random(seed)
        names = [f"p{i}" for i in range(6)]
        program = Program.from_sizes(
            {name: rng.randint(16, 300) for name in names}
        )
        db = PairDatabase()
        for _ in range(20):
            p, r, s = rng.sample(names, 3)
            db.record(p, [r, s])
        split = rng.randint(1, 5)
        n1 = MergeNode(
            [
                PlacedProcedure(n, rng.randrange(config.num_lines))
                for n in names[:split]
            ]
        )
        n2 = MergeNode(
            [
                PlacedProcedure(n, rng.randrange(config.num_lines))
                for n in names[split:]
            ]
        )
        fast = sa_offset_costs(n1, n2, db, program, config)
        reference = sa_offset_costs_reference(n1, n2, db, program, config)
        assert np.allclose(fast, reference, atol=1e-6)


class TestMergeSA:
    def test_avoids_triple_conflict(self, config):
        program = Program.from_sizes({"p": 32, "r": 32, "s": 32})
        db = PairDatabase()
        db.record("p", ["r", "s"])
        n1 = MergeNode.single("p")
        n2 = MergeNode(
            [PlacedProcedure("r", 0), PlacedProcedure("s", 0)]
        )
        merged = merge_nodes_sa(n1, n2, db, program, config)
        # The chosen shift must move {r, s} off p's set.
        r_set = merged.offset_of("r") % config.num_sets
        p_set = merged.offset_of("p") % config.num_sets
        assert r_set != p_set

    def test_shared_procedure_rejected(self, config):
        program = Program.from_sizes({"p": 32})
        with pytest.raises(PlacementError):
            merge_nodes_sa(
                MergeNode.single("p"),
                MergeNode.single("p"),
                PairDatabase(),
                program,
                config,
            )


class TestPlacementSA:
    def _context(self, program, refs, config):
        trace = full_trace(program, refs)
        popular = tuple(program.names)
        pair_db, _ = build_pair_database(
            procedure_refs(trace, set(popular)),
            program.size_of,
            2 * config.size,
        )
        return PlacementContext(
            program=program,
            config=config,
            wcg=build_wcg(trace),
            trgs=build_trgs(trace, config, popular=set(popular)),
            popular=popular,
            pair_db=pair_db,
        )

    def test_produces_valid_layout(self, config):
        program = Program.from_sizes(
            {"a": 64, "b": 64, "c": 64, "d": 64}
        )
        refs = ["a", "b", "c", "a", "d", "b"] * 15
        context = self._context(program, refs, config)
        layout = GBSCSetAssociativePlacement().place(context)
        assert sorted(layout.order_by_address()) == sorted(program.names)

    def test_requires_pair_db(self, config):
        program = Program.from_sizes({"a": 64, "b": 64})
        trace = full_trace(program, ["a", "b"] * 5)
        context = PlacementContext(
            program=program,
            config=config,
            wcg=build_wcg(trace),
            trgs=build_trgs(trace, config),
            popular=tuple(program.names),
        )
        with pytest.raises(PlacementError):
            GBSCSetAssociativePlacement().place(context)

    def test_three_way_rotation_layout_quality(self, config):
        """a, b, c rotate: in a 2-way cache any two can share a set,
        but all three on one set thrash.  The SA-aware placement must
        not map all three hot blocks to the same set."""
        program = Program.from_sizes(
            {"a": 32, "b": 32, "c": 32, "pad": 32}
        )
        refs = ["a", "b", "c"] * 40
        context = self._context(program, refs, config)
        layout = GBSCSetAssociativePlacement().place(context)
        sets = [
            layout.start_set_of(name, config) for name in ("a", "b", "c")
        ]
        assert len(set(sets)) >= 2
        trace = full_trace(program, refs)
        stats = simulate(layout, trace, config)
        # All-same-set would miss on (nearly) every reference.
        assert stats.miss_ratio < 0.5

    def test_deterministic(self, config):
        program = Program.from_sizes({"a": 64, "b": 64, "c": 64})
        refs = ["a", "b", "c", "b", "a"] * 12
        context = self._context(program, refs, config)
        algo = GBSCSetAssociativePlacement()
        assert algo.place(context) == algo.place(context)

    def test_merges_through_the_gbsc_loop(self, config, tmp_path):
        """GBSC-SA runs GBSC's greedy loop, so its merges show up in the
        ``gbsc_merge`` span and the ``gbsc.merge.*`` counters."""
        program = Program.from_sizes({"a": 64, "b": 64, "c": 64})
        context = self._context(program, ["a", "b", "c", "b", "a"] * 12, config)
        run = tmp_path / "run.jsonl"
        session = RunSession("gbsc-sa", metrics_out=run, with_git=False)
        try:
            GBSCSetAssociativePlacement().place(context)
        finally:
            manifest = session.finish()
        spans = [
            record["name"]
            for record in map(json.loads, run.read_text().splitlines())
            if record.get("type") == "span"
        ]
        assert "gbsc_merge" in spans
        assert manifest["metrics"]["gbsc.merge.edges_merged"]["value"] == 2
