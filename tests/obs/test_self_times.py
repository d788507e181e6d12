"""``repro.obs.self_times``: the per-stage fold of a manifest timing tree."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import self_times


def span(name, duration, *children, **attributes):
    node = {"name": name, "start": 0.0, "duration": duration}
    if attributes:
        node["attributes"] = attributes
    if children:
        node["children"] = list(children)
    return node


class TestSelfTimes:
    def test_self_time_subtracts_direct_children_only(self):
        timings = [
            span(
                "place", 1.0,
                span("gbsc_merge", 0.75, span("merge", 0.5)),
                span("linearize", 0.125),
                algorithm="GBSC",
            ),
            span("simulate", 0.25),
        ]
        assert self_times(timings) == {
            "gbsc_merge": {"self_s": 0.25, "total_s": 0.75, "calls": 1},
            "linearize": {"self_s": 0.125, "total_s": 0.125, "calls": 1},
            "merge": {"self_s": 0.5, "total_s": 0.5, "calls": 1},
            "place.GBSC": {"self_s": 0.125, "total_s": 1.0, "calls": 1},
            "simulate": {"self_s": 0.25, "total_s": 0.25, "calls": 1},
        }

    def test_repeated_spans_accumulate_per_algorithm(self):
        timings = [
            span("place", 0.5, algorithm="PH"),
            span("place", 0.25, algorithm="PH"),
            span("place", 0.125, algorithm="HKC"),
        ]
        stages = self_times(timings)
        assert list(stages) == ["place.HKC", "place.PH"]
        assert stages["place.PH"] == {
            "self_s": 0.75, "total_s": 0.75, "calls": 2,
        }

    def test_empty_tree(self):
        assert self_times([]) == {}


def _tree(children: st.SearchStrategy) -> st.SearchStrategy:
    return st.builds(
        lambda name, duration, algorithm, kids: span(
            name, duration, *kids,
            **({"algorithm": algorithm} if algorithm else {}),
        ),
        st.sampled_from(["place", "simulate", "perturb"]),
        st.floats(min_value=0.0, max_value=10.0),
        st.sampled_from([None, "GBSC", "PH"]),
        children,
    )


trees = st.recursive(
    _tree(st.just([])),
    lambda inner: _tree(st.lists(inner, max_size=3)),
    max_leaves=25,
)


def _count(nodes) -> int:
    return sum(1 + _count(node.get("children") or ()) for node in nodes)


@given(st.lists(trees, max_size=4))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_self_times_partition_the_root_time(timings):
    """Self times sum to the root durations and calls to the span
    count, whatever the tree's shape, names or attributes."""
    stages = self_times(timings)
    assert math.isclose(
        math.fsum(stage["self_s"] for stage in stages.values()),
        math.fsum(root["duration"] for root in timings),
        rel_tol=1e-9,
        abs_tol=1e-9,
    )
    assert sum(stage["calls"] for stage in stages.values()) == _count(timings)
