"""Tests for the Section 6 set-associative extension."""

import dataclasses
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.config import PAPER_CACHE_2WAY, CacheConfig
from repro.cache.simulator import simulate
from repro.core.merge import (
    ChunkWeights,
    MergeNode,
    PlacedProcedure,
    offset_costs_reference,
)
from repro.core.setassoc import (
    GBSCSetAssociativePlacement,
    PairIndex,
    _set_mask,
    merge_nodes_sa,
    sa_offset_costs,
    sa_offset_costs_reference,
)
from repro.errors import PlacementError
from repro.eval.experiment import build_context, run_experiment
from repro.obs import RunSession
from repro.placement.base import PlacementContext
from repro.profiles.graph import WeightedGraph
from repro.profiles.pairdb import (
    PairDatabase,
    PairRows,
    build_pair_database,
)
from repro.profiles.perturb import PAPER_SCALE
from repro.profiles.trg import build_trgs, procedure_refs
from repro.profiles.wcg import build_wcg
from repro.program.procedure import ChunkId
from repro.program.program import Program
from repro.trace.callgraph import random_call_graph
from repro.trace.generator import generate_trace
from repro.workloads.suite import by_name
from tests.conftest import full_trace

#: Two-way (and one four-way) geometries of 2 to 8 sets.
SA_CONFIGS = [
    CacheConfig(size=256, line_size=32, associativity=2),
    CacheConfig(size=512, line_size=32, associativity=2),
    CacheConfig(size=256, line_size=32, associativity=4),
]


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


def draw_case(data):
    """A random geometry, program, pair database and pair of nodes.

    Procedures of one to three lines share only some sets, others
    reach past the largest cache (the all-ones mask).  The database
    names procedures outside the program and outside both nodes, may
    record one-member pairs, and may be empty.
    """
    config = data.draw(st.sampled_from(SA_CONFIGS), label="config")
    sizes = data.draw(
        st.lists(
            st.one_of(st.integers(1, 96), st.integers(97, 600)),
            min_size=3,
            max_size=8,
        ),
        label="sizes",
    )
    program = Program.from_sizes(
        {f"p{index}": size for index, size in enumerate(sizes)}
    )
    names = list(program.names)
    blocks = names + ["outside"]
    db = PairDatabase()
    for p in blocks:
        recorded = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(blocks),
                    st.sampled_from(blocks),
                    st.integers(1, 50),
                ),
                max_size=8,
            ),
            label=f"pairs of {p}",
        )
        for r, s, count in recorded:
            for _ in range(count):
                db.record(p, [r, s])
    split = data.draw(st.integers(1, len(names) - 2), label="split")
    stop = data.draw(st.integers(split + 1, len(names)), label="stop")

    def node(members):
        return MergeNode(
            [
                PlacedProcedure(
                    name, data.draw(st.integers(0, config.num_lines - 1))
                )
                for name in members
            ]
        )

    return config, program, db, node(names[:split]), node(names[split:stop])


class TestPairIndex:
    """The per-placement pair index against the loop and the per-pair
    evaluator."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_reference(self, data):
        """Every cost is an integer, and the rounded FFT gives it
        exactly, whichever node the rows are gathered through."""
        config, program, db, n1, n2 = draw_case(data)
        pairs = PairIndex(db, program, config, n1.names + n2.names)
        reference = sa_offset_costs_reference(n1, n2, db, program, config)
        assert np.array_equal(pairs.offset_costs(n1, n2), reference)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_placement_scope_is_bit_identical_to_pair_scope(self, data):
        """An index over every procedure gives exactly the costs of one
        over the merged pair: the GBSC-SA tie-break depends on it."""
        config, program, db, n1, n2 = draw_case(data)
        placement = PairIndex(db, program, config, program.names)
        pair = sa_offset_costs(n1, n2, db, program, config)
        assert np.array_equal(placement.offset_costs(n1, n2), pair)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_costs_do_not_depend_on_row_order(self, data, seed):
        """Shuffled database rows give exactly the same costs: no
        tie-break depends on the order the rows are summed in."""
        config, program, db, n1, n2 = draw_case(data)
        rows = db.rows()
        order = np.random.default_rng(seed).permutation(len(rows.count))
        shuffled = PairDatabase.from_rows(
            PairRows(
                rows.nodes,
                rows.block[order],
                rows.r[order],
                rows.s[order],
                rows.count[order],
            )
        )
        assert np.array_equal(
            PairIndex(shuffled, program, config, program.names).offset_costs(
                n1, n2
            ),
            PairIndex(db, program, config, program.names).offset_costs(
                n1, n2
            ),
        )

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_masks_follow_the_set_mask_rule(self, data):
        config, program, _, n1, n2 = draw_case(data)
        pairs = PairIndex(PairDatabase(), program, config, program.names)
        node = n1.combined_with(n2)
        ids, masks = pairs.masks(node)
        assert len(ids) == len(node)
        for placement, mask in zip(node.placements, masks):
            expected = _set_mask(
                placement.offset, program.size_of(placement.name), config
            )
            assert np.array_equal(mask, expected)

    def test_one_member_pairs_never_cost(self, config):
        program = Program.from_sizes({"p": 32, "r": 32})
        db = PairDatabase()
        db.record("p", ["r", "r"])
        pairs = PairIndex(db, program, config, program.names)
        costs = pairs.offset_costs(
            MergeNode.single("p"), MergeNode.single("r")
        )
        assert np.array_equal(costs, np.zeros(config.num_sets))

    def test_unknown_procedure_rejected(self, config):
        program = Program.from_sizes({"p": 32, "q": 32})
        pairs = PairIndex(PairDatabase(), program, config, ["p"])
        with pytest.raises(PlacementError, match="'q'"):
            pairs.offset_costs(MergeNode.single("p"), MergeNode.single("q"))


class TestMergeSA:
    def test_avoids_triple_conflict(self, config):
        program = Program.from_sizes({"p": 32, "r": 32, "s": 32})
        db = PairDatabase()
        db.record("p", ["r", "s"])
        n1 = MergeNode.single("p")
        n2 = MergeNode(
            [PlacedProcedure("r", 0), PlacedProcedure("s", 0)]
        )
        merged = merge_nodes_sa(
            n1, n2, PairIndex(db, program, config, program.names)
        )
        # The chosen shift must move {r, s} off p's set.
        r_set = merged.offset_of("r") % config.num_sets
        p_set = merged.offset_of("p") % config.num_sets
        assert r_set != p_set

    @pytest.mark.xfail(
        strict=True,
        reason="FFT round-off decides exact direct-mapped ties (ROADMAP)",
    )
    def test_round_off_decides_exact_direct_mapped_ties(self):
        """The tie-break should take the first set offset of least
        direct-mapped cost.  Here offsets 0 and 4 both cost exactly 0,
        but the FFT gives offset 0 a cost of 2.8e-17 and the exact
        ``argmin`` picks 4."""
        program = Program.from_sizes({"p0": 1, "p1": 1, "p5": 225})
        config = CacheConfig(size=512, line_size=32, associativity=2)
        graph = WeightedGraph()
        graph.add_edge(ChunkId("p0", 0), ChunkId("p5", 3), 1.0)
        weights = ChunkWeights(graph, program, config, program.names, 64)
        pairs = PairIndex(PairDatabase(), program, config, program.names)
        n1 = MergeNode([PlacedProcedure("p0", 0), PlacedProcedure("p1", 0)])
        n2 = MergeNode.single("p5")
        exact = (
            offset_costs_reference(n1, n2, graph, program, config, 64)
            .reshape(-1, config.num_sets)
            .sum(axis=0)
        )
        assert exact[0] == exact[4] == exact.min()
        merged = merge_nodes_sa(n1, n2, pairs, weights)
        assert merged.offset_of("p5") == 0

    def test_shared_procedure_rejected(self, config):
        program = Program.from_sizes({"p": 32})
        with pytest.raises(PlacementError):
            merge_nodes_sa(
                MergeNode.single("p"),
                MergeNode.single("p"),
                PairIndex(PairDatabase(), program, config, program.names),
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
        metrics = manifest["metrics"]
        assert metrics["gbsc.merge.edges_merged"]["value"] == 2
        # Each Section 6 merge scores every set alignment.
        assert metrics["gbsc.merge.offsets_evaluated"]["value"] == (
            2 * config.num_sets
        )

    def test_fast_built_sweep_never_reads_the_dict_view(self, monkeypatch):
        """The array build and GBSC-SA's pair index share the rows: a
        sweep over a fast-built context, clean and perturbed, never
        builds the database's counters."""

        def forbidden(*_args, **_kwargs):
            raise AssertionError("the pair database's dict view was read")

        monkeypatch.setattr(PairDatabase, "pairs_for", forbidden)
        monkeypatch.setattr(PairDatabase, "_counters", forbidden)
        workload = by_name("m88ksim").scaled(0.05)
        graph = random_call_graph(workload.graph_params)
        train = generate_trace(graph, workload.train)
        test = generate_trace(graph, workload.test)
        context = build_context(train, PAPER_CACHE_2WAY, with_pair_db=True)
        for profile in (
            context,
            context.perturbed(PAPER_SCALE, 1),
            context.perturbed(PAPER_SCALE, 2),
        ):
            result = run_experiment(
                profile, test, [GBSCSetAssociativePlacement()]
            )
            assert 0.0 <= result.outcomes[0].miss_rate <= 1.0

    def test_scalar_database_gives_the_same_layout(self):
        """The array-built pair database of a context iterates every
        block's pairs in the scalar build's order, so the layout is
        the one the scalar database gives."""
        workload = by_name("m88ksim").scaled(0.05)
        train = generate_trace(
            random_call_graph(workload.graph_params), workload.train
        )
        context = build_context(train, PAPER_CACHE_2WAY, with_pair_db=True)
        built = context.pair_db
        scalar, _ = build_pair_database(
            procedure_refs(train, set(context.popular)),
            train.program.size_of,
            2 * PAPER_CACHE_2WAY.size,
        )
        assert scalar.blocks == built.blocks
        for block in built.blocks:
            assert list(scalar.pairs_for(block).items()) == list(
                built.pairs_for(block).items()
            )
        algorithm = GBSCSetAssociativePlacement()
        assert algorithm.place(context) == algorithm.place(
            dataclasses.replace(context, pair_db=scalar)
        )
