"""Tests for multiplicative profile perturbation (Section 5.1)."""

import hashlib
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cache.config import PAPER_CACHE
from repro.errors import ConfigError
from repro.eval.experiment import build_context
from repro.profiles.graph import FrozenGraph, WeightedGraph, _canon_key
from repro.profiles.perturb import (
    PAPER_SCALE,
    perturbed,
    structural_node_key,
)
from repro.program.procedure import ChunkId
from repro.workloads.suite import by_name


@pytest.fixture
def graph() -> WeightedGraph:
    g = WeightedGraph()
    g.add_edge("a", "b", 100.0)
    g.add_edge("b", "c", 200.0)
    g.add_node("isolated")
    return g


class TestPerturbation:
    def test_paper_scale(self):
        assert PAPER_SCALE == 0.1

    def test_zero_scale_is_identity(self, graph):
        assert perturbed(graph, 0.0, seed=1) == graph

    def test_deterministic(self, graph):
        assert perturbed(graph, 0.1, seed=5) == perturbed(graph, 0.1, seed=5)

    def test_different_seeds_differ(self, graph):
        a = perturbed(graph, 0.1, seed=1)
        b = perturbed(graph, 0.1, seed=2)
        assert a != b

    def test_structure_preserved(self, graph):
        noisy = perturbed(graph, 0.5, seed=3)
        assert set(noisy.nodes) == set(graph.nodes)
        assert noisy.num_edges() == graph.num_edges()
        assert noisy.has_edge("a", "b")

    def test_weights_stay_positive(self, graph):
        """Multiplicative noise cannot create negative weights — the
        paper's stated reason for choosing it over additive noise."""
        for seed in range(50):
            noisy = perturbed(graph, 2.0, seed=seed)
            for _, _, weight in noisy.edges():
                assert weight > 0

    def test_negative_scale_rejected(self, graph):
        with pytest.raises(ConfigError):
            perturbed(graph, -0.1, seed=0)

    def test_insertion_order_does_not_matter(self):
        """Canonical edge ordering: the same logical graph perturbs
        identically regardless of how it was built."""
        g1 = WeightedGraph()
        g1.add_edge("a", "b", 10.0)
        g1.add_edge("c", "d", 20.0)
        g2 = WeightedGraph()
        g2.add_edge("c", "d", 20.0)
        g2.add_edge("b", "a", 10.0)
        assert perturbed(g1, 0.3, seed=7) == perturbed(g2, 0.3, seed=7)

    @given(scale=st.floats(0.001, 1.0), seed=st.integers(0, 100))
    def test_self_scaling(self, scale, seed):
        """Perturbation ratios are independent of weight magnitude —
        the 'inherently self-scaling' property claimed in Section 5.1."""
        small = WeightedGraph()
        small.add_edge("a", "b", 1.0)
        big = WeightedGraph()
        big.add_edge("a", "b", 1e9)
        ratio_small = perturbed(small, scale, seed).weight("a", "b") / 1.0
        ratio_big = perturbed(big, scale, seed).weight("a", "b") / 1e9
        assert ratio_small == pytest.approx(ratio_big, rel=1e-9)

    def test_small_scale_small_changes(self, graph):
        noisy = perturbed(graph, 0.01, seed=9)
        for a, b, weight in graph.edges():
            assert noisy.weight(a, b) == pytest.approx(weight, rel=0.1)


class TestStructuralNodeKey:
    """The canonical visit order is structural, not ``repr``
    lexicographic: ``p2`` sorts before ``p10``, and chunk ids sort by
    (procedure, index)."""

    def test_natural_numeric_order(self):
        names = ["p10", "p2", "p1", "p20", "p3"]
        assert sorted(names, key=structural_node_key) == [
            "p1",
            "p2",
            "p3",
            "p10",
            "p20",
        ]

    def test_repr_order_was_wrong(self):
        # The bug this key replaces: lexicographic repr ordering puts
        # p10 before p2.
        assert sorted(["p10", "p2"], key=repr) == ["p10", "p2"]
        assert structural_node_key("p2") < structural_node_key("p10")

    def test_chunk_ids_sort_by_procedure_then_index(self):
        chunks = [
            ChunkId("p10", 0),
            ChunkId("p2", 1),
            ChunkId("p2", 0),
            ChunkId("p2", 10),
            ChunkId("p2", 2),
        ]
        assert sorted(chunks, key=structural_node_key) == [
            ChunkId("p2", 0),
            ChunkId("p2", 1),
            ChunkId("p2", 2),
            ChunkId("p2", 10),
            ChunkId("p10", 0),
        ]

    def test_names_and_chunks_never_interleave(self):
        mixed = [ChunkId("a", 0), "a", ChunkId("b", 1), "b"]
        ordered = sorted(mixed, key=structural_node_key)
        assert ordered == [ChunkId("a", 0), ChunkId("b", 1), "a", "b"]

    def test_multi_segment_names(self):
        names = ["f2_g10", "f2_g2", "f10_g1"]
        assert sorted(names, key=structural_node_key) == [
            "f2_g2",
            "f2_g10",
            "f10_g1",
        ]


class TestDrawAssignment:
    def test_draws_follow_structural_edge_order(self):
        """The k-th Gaussian draw lands on the k-th edge in structural
        order — pinning the exact rng-to-edge assignment."""
        graph = WeightedGraph()
        graph.add_edge("p10", "p11", 100.0)
        graph.add_edge("p2", "p3", 100.0)
        noisy = perturbed(graph, 0.5, seed=13)
        rng = random.Random(13)
        first = 100.0 * math.exp(0.5 * rng.gauss(0.0, 1.0))
        second = 100.0 * math.exp(0.5 * rng.gauss(0.0, 1.0))
        # (p2, p3) sorts before (p10, p11) under the structural key.
        assert noisy.weight("p2", "p3") == pytest.approx(first)
        assert noisy.weight("p10", "p11") == pytest.approx(second)

    def test_digit_width_does_not_move_other_draws(self):
        """Renaming one node without changing its structural rank
        leaves every other edge's perturbation untouched."""
        g1 = WeightedGraph()
        g1.add_edge("a", "b", 10.0)
        g1.add_edge("m", "n", 20.0)
        g2 = WeightedGraph()
        g2.add_edge("a", "b", 10.0)
        g2.add_edge("m2", "n", 20.0)  # still sorts after (a, b)
        n1 = perturbed(g1, 0.3, seed=7)
        n2 = perturbed(g2, 0.3, seed=7)
        assert n1.weight("a", "b") == n2.weight("a", "b")
        assert n1.weight("m", "n") == n2.weight("m2", "n")

    def test_chunk_graphs_perturb_deterministically(self):
        graph = WeightedGraph()
        graph.add_edge(ChunkId("p2", 0), ChunkId("p10", 0), 50.0)
        graph.add_edge(ChunkId("p2", 1), ChunkId("p2", 2), 60.0)
        assert perturbed(graph, 0.2, seed=3) == perturbed(
            graph, 0.2, seed=3
        )


#: sha256 of every edge of ``perturbed(TRG_place, 0.1, 7)`` as
#: ``repr(a)\trepr(b)\tweight.hex()`` lines in canonical edge order, for
#: suite training traces.  They pin which Gaussian draw each edge gets
#: and the ``math.exp`` scaling to the last bit.
PERTURBED_PLACE_DIGESTS = {
    ("gcc", 0.25): (
        "e368918b61b3ac09477b41654c99b537a57d705339d799784b516a28953e415d"
    ),
    ("go", 0.25): (
        "a4295347250d8e8b2d0e6e621a82e635ca9232d69929c147239e2684010a62f8"
    ),
    ("ghostscript", 0.25): (
        "27480c54c211bbc095c4a26e0c3e780176f9ec4cf5a2e63bfd6c9cd0bc13f9b6"
    ),
    ("m88ksim", 0.25): (
        "56f6925a927156bab0b92861388b7b318b083156b62b5f1bd88dd2af0561be6b"
    ),
    ("perl", 0.25): (
        "94cf32c48bda96acfffe4eda5a4496cf26d4b96c9e1cb81a703db153e9ea21d9"
    ),
    ("vortex", 0.25): (
        "3d91e332c527b969ee763fbfca2d572b5e96ea1dec3c8d589f8a31585d1a41bf"
    ),
    ("perl", 1.0): (
        "053b68a57a1bf9a6e581e91a56d61a38aa27a661ea3d76111a2db3e2ee265277"
    ),
}


def edge_digest(graph) -> str:
    digest = hashlib.sha256()
    canonical = sorted(
        graph.edges(), key=lambda edge: (_canon_key(edge[0]), _canon_key(edge[1]))
    )
    for a, b, weight in canonical:
        digest.update(f"{a!r}\t{b!r}\t{weight.hex()}\n".encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "name,scale", sorted(PERTURBED_PLACE_DIGESTS), ids=lambda value: str(value)
)
def test_perturbed_place_graph_digests_are_pinned(name, scale):
    context = build_context(
        by_name(name).scaled(scale).trace("train"), PAPER_CACHE
    )
    out = perturbed(context.trgs.place, PAPER_SCALE, 7)
    assert isinstance(out, FrozenGraph)
    assert edge_digest(out) == PERTURBED_PLACE_DIGESTS[(name, scale)]
