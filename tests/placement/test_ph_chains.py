"""PH chain combination: the four-order rule from per-chain byte counts
against the rescanning distance it replaced, and the placement
invariant."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.placement.ph import _combine_chains, ph_order
from repro.profiles.graph import WeightedGraph
from repro.program.layout import Layout
from repro.program.program import Program


def byte_distance(
    order: list[str], p: str, q: str, program: Program
) -> int:
    """Reference: bytes separating *p* and *q* in a contiguous layout."""
    starts: dict[str, int] = {}
    cursor = 0
    for name in order:
        starts[name] = cursor
        cursor += program.size_of(name)
    p_start, p_end = starts[p], starts[p] + program.size_of(p)
    q_start, q_end = starts[q], starts[q] + program.size_of(q)
    if p_end <= q_start:
        return q_start - p_end
    return p_start - q_end


def reference_combine(
    chain_a: list[str], chain_b: list[str], p: str, q: str, program
) -> list[str]:
    """The first of AB, AB', A'B, A'B' with the least p–q distance."""
    candidates = [
        chain_a + chain_b,
        chain_a + chain_b[::-1],
        chain_a[::-1] + chain_b,
        chain_a[::-1] + chain_b[::-1],
    ]
    return min(
        candidates,
        key=lambda merged: byte_distance(merged, p, q, program),
    )


def member_index(length: int):
    """An index into a chain, with both ends drawn often."""
    return st.one_of(
        st.just(0), st.just(length - 1), st.integers(0, length - 1)
    )


@st.composite
def chain_pairs(draw):
    len_a = draw(st.integers(1, 8))
    len_b = draw(st.integers(1, 8))
    # Small sizes make distance ties common, so the first-minimum rule
    # is exercised as well as the minimum.
    sizes = draw(
        st.lists(
            st.integers(1, 6), min_size=len_a + len_b,
            max_size=len_a + len_b,
        )
    )
    names = [f"p{i}" for i in range(len_a + len_b)]
    order = draw(st.permutations(names))
    chain_a, chain_b = list(order[:len_a]), list(order[len_a:])
    p = chain_a[draw(member_index(len_a))]
    q = chain_b[draw(member_index(len_b))]
    program = Program.from_sizes(dict(zip(names, sizes)))
    return program, chain_a, chain_b, p, q


class TestFourOrderRule:
    @given(chain_pairs())
    @settings(max_examples=400)
    def test_matches_byte_distance_reference(self, case):
        program, chain_a, chain_b, p, q = case
        original = WeightedGraph()
        original.add_edge(p, q, 1.0)
        chains = {"u": list(chain_a), "v": list(chain_b)}
        sizes = {name: program.size_of(name) for name in program.names}
        _combine_chains(chains, "u", "v", original, sizes)
        assert chains == {
            "u": reference_combine(chain_a, chain_b, p, q, program)
        }


@st.composite
def programs_and_wcgs(draw):
    count = draw(st.integers(1, 14))
    sizes = draw(
        st.lists(st.integers(1, 500), min_size=count, max_size=count)
    )
    program = Program.from_sizes({f"p{i}": s for i, s in enumerate(sizes)})
    names = program.names
    wcg = WeightedGraph()
    for a, b, weight in draw(
        st.lists(
            st.tuples(
                st.sampled_from(names),
                st.sampled_from(names),
                st.integers(1, 9),
            ),
            max_size=30,
        )
    ):
        if a != b:
            wcg.add_edge(a, b, float(weight))
    return program, wcg


class TestPHInvariants:
    @given(programs_and_wcgs())
    @settings(max_examples=150, deadline=None)
    def test_placed_once_without_overlap(self, case):
        program, wcg = case
        order = ph_order(program, wcg)
        assert sorted(order) == sorted(program.names)
        layout = Layout.from_order(program, order)
        spans = sorted(
            (layout.address_of(name), layout.end_address_of(name))
            for name in program.names
        )
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end <= start
