"""HKC line colours: the bitmask against the set it replaced, and the
placement invariants the colours must uphold."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.config import CacheConfig
from repro.placement.hkc import _colour_and_order, line_mask
from repro.profiles.graph import WeightedGraph
from repro.program.layout import Layout
from repro.program.program import Program


def set_colour(offset: int, size: int, config: CacheConfig) -> set[int]:
    """Reference: the cache lines as a set, one element per line spanned."""
    first = offset // config.line_size
    count = len(config.lines_spanned(offset, size))
    return {(first + i) % config.num_lines for i in range(count)}


def bits(mask: int) -> set[int]:
    return {i for i in range(mask.bit_length()) if mask >> i & 1}


geometries = st.builds(
    lambda line_size, num_lines: CacheConfig(
        size=line_size * num_lines, line_size=line_size
    ),
    st.sampled_from([4, 8, 16, 32, 64]),
    st.integers(1, 70),
)


@st.composite
def placements(draw):
    """A random program, WCG, popular set and cache geometry."""
    count = draw(st.integers(1, 12))
    sizes = draw(
        st.lists(st.integers(1, 700), min_size=count, max_size=count)
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
            max_size=25,
        )
    ):
        if a != b:
            wcg.add_edge(a, b, float(weight))
    popular = draw(st.none() | st.sets(st.sampled_from(names)))
    return program, wcg, popular, draw(geometries)


class TestLineMask:
    @given(
        config=geometries,
        offset=st.integers(0, 5000),
        size=st.integers(1, 5000),
    )
    @settings(max_examples=400)
    def test_mask_equals_set_colour(self, config, offset, size):
        """Offsets at and past the cache size, extents larger than the
        cache, and the 1-line cache all colour as the set did."""
        mask = line_mask(offset, size, config.line_size, config.num_lines)
        assert bits(mask) == set_colour(offset, size, config)
        assert mask < 1 << config.num_lines

    def test_zero_size_covers_nothing(self):
        assert line_mask(64, 0, 32, 8) == 0

    def test_wrap_around_the_last_line(self):
        # Lines 7, 0 and 1 of an 8-line cache.
        assert bits(line_mask(7 * 32 + 5, 70, 32, 8)) == {7, 0, 1}

    def test_one_line_cache(self):
        assert line_mask(12345, 1, 32, 1) == 1


class TestHKCInvariants:
    @given(placements())
    @settings(max_examples=150, deadline=None)
    def test_placed_once_without_overlap(self, case):
        program, wcg, popular, config = case
        order, gaps, _ = _colour_and_order(program, wcg, config, popular)
        assert sorted(order) == sorted(program.names)
        layout = Layout.from_order(program, order, gaps_before=gaps)
        spans = sorted(
            (layout.address_of(name), layout.end_address_of(name))
            for name in program.names
        )
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end <= start

    @given(placements())
    @settings(max_examples=150, deadline=None)
    def test_final_lines_equal_computed_colour(self, case):
        """Each compound starts at a multiple of the cache size, so a
        popular procedure's lines in the layout are its colour."""
        program, wcg, popular, config = case
        order, gaps, lines_of = _colour_and_order(
            program, wcg, config, popular
        )
        coloured = set(wcg.nodes) if popular is None else popular
        assert set(lines_of) == coloured
        layout = Layout.from_order(program, order, gaps_before=gaps)
        for name, mask in lines_of.items():
            final = set_colour(
                layout.address_of(name), program.size_of(name), config
            )
            assert bits(mask) == final
