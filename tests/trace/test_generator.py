"""Tests for the stochastic trace generator."""

import hashlib

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace.callgraph import CallGraphParams, random_call_graph
from repro.trace.generator import TraceInput, generate_trace
from repro.workloads.suite import by_name


@pytest.fixture(scope="module")
def graph():
    return random_call_graph(
        CallGraphParams(n_procedures=60, hot_procedures=12, seed=9)
    )


class TestInputValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"target_events": 0},
            {"target_events": 100, "phases": 0},
            {"target_events": 100, "phase_skew": -1.0},
            {"target_events": 100, "body_scale": 0.0},
            {"target_events": 100, "body_scale": 3.0},
            {"target_events": 100, "max_depth": 0},
        ],
    )
    def test_invalid_inputs(self, kwargs):
        with pytest.raises(TraceError):
            TraceInput(name="x", seed=0, **kwargs)


class TestGeneration:
    def test_reaches_target_length(self, graph):
        trace = generate_trace(
            graph, TraceInput("t", seed=1, target_events=5000)
        )
        assert len(trace) >= 5000
        # Never wildly overshoots (at most a couple extra events).
        assert len(trace) <= 5010

    def test_deterministic(self, graph):
        inp = TraceInput("t", seed=42, target_events=2000)
        a = generate_trace(graph, inp)
        b = generate_trace(graph, inp)
        assert list(a.proc_indices) == list(b.proc_indices)
        assert list(a.extent_starts) == list(b.extent_starts)

    def test_different_seeds_differ(self, graph):
        a = generate_trace(graph, TraceInput("t", seed=1, target_events=2000))
        b = generate_trace(graph, TraceInput("t", seed=2, target_events=2000))
        assert list(a.proc_indices) != list(b.proc_indices)

    def test_extents_valid(self, graph):
        """Trace.from_arrays validates extents; a successful build is
        the assertion, but double-check a sample explicitly."""
        trace = generate_trace(
            graph, TraceInput("t", seed=3, target_events=3000)
        )
        for event in list(trace)[:200]:
            event.validate(graph.program)

    def test_starts_with_root(self, graph):
        trace = generate_trace(
            graph, TraceInput("t", seed=4, target_events=100)
        )
        assert trace[0].procedure == graph.root

    def test_only_reachable_procedures_appear(self, graph):
        trace = generate_trace(
            graph, TraceInput("t", seed=5, target_events=5000)
        )
        assert trace.touched_procedures() <= graph.reachable()

    def test_phases_change_behaviour(self, graph):
        """With strong phase skew, the first and last quarters of the
        trace should reference measurably different procedure mixes."""
        trace = generate_trace(
            graph,
            TraceInput(
                "t", seed=6, target_events=20000, phases=4, phase_skew=2.0
            ),
        )
        quarter = len(trace) // 4
        head = set(trace.proc_indices[:quarter].tolist())
        tail = set(trace.proc_indices[-quarter:].tolist())
        assert head != tail

    def test_zero_skew_single_phase(self, graph):
        trace = generate_trace(
            graph,
            TraceInput(
                "t", seed=7, target_events=1000, phases=1, phase_skew=0.0
            ),
        )
        assert len(trace) >= 1000

    def test_max_depth_limits_stack(self, graph):
        """A depth-1 run can only ever execute the root procedure."""
        trace = generate_trace(
            graph,
            TraceInput("t", seed=8, target_events=500, max_depth=1),
        )
        assert trace.touched_procedures() == {graph.root}

    def test_body_scale_changes_extents(self, graph):
        small = generate_trace(
            graph,
            TraceInput("t", seed=9, target_events=3000, body_scale=0.5),
        )
        large = generate_trace(
            graph,
            TraceInput("t", seed=9, target_events=3000, body_scale=1.0),
        )
        assert small.total_bytes < large.total_bytes


#: sha256 of ``(proc_indices as int32, extent_starts as int64,
#: extent_lengths as int64)`` for suite traces.  These pin every draw
#: the generator makes: a change to the loop that reorders or alters a
#: single random draw changes the digest.
SUITE_TRACE_DIGESTS = {
    ("gcc", 0.25, "train"): (
        "a69bc810f8df086ad69fa42f9965398dbc1a43763f165aa31aea0e0da7df903f"
    ),
    ("gcc", 0.25, "test"): (
        "95ac66f78fbafcdfbc06cf135eecb4e77b6559e5dc3c7145ef2671e5bdbaf84f"
    ),
    ("go", 0.25, "train"): (
        "18b347b1f7ca8973441fc74f14a9039a1234121a74158e1470e43b18c64d7c56"
    ),
    ("go", 0.25, "test"): (
        "1ee4284f21236ec67cff40c8a5b65a277541ac5e2f587662738095f37002c079"
    ),
    ("ghostscript", 0.25, "train"): (
        "f466842d492431380a4354bc8787ff4e5616426d1e4422f562f88d5f0bf84d6f"
    ),
    ("ghostscript", 0.25, "test"): (
        "1a509e90572817802afb00c4cd97e2411d923cd569231cb0190c06ce42c22318"
    ),
    ("m88ksim", 0.25, "train"): (
        "107a29749339acb6cb72c500a58d906d351785401b8133fc9b7aa2960c5c6b3f"
    ),
    ("m88ksim", 0.25, "test"): (
        "e4cf99141854c95a8ce50ea9a0bbbc8e3bf73b4fc5d89c6a24e05c905cdbb437"
    ),
    ("perl", 0.25, "train"): (
        "2c95746b6ee284a6e28a8de8a0031afbfdea7eda48a88c23da8734f43e14bd40"
    ),
    ("perl", 0.25, "test"): (
        "9a57f58b1b85520c30af59448c964497d8d3341737589f548334fb5e687b3851"
    ),
    ("vortex", 0.25, "train"): (
        "3ff58e95bb5ba37e893c6c8b51a94dc9b13470e67f49fd5fa2dcc00ab02c2e54"
    ),
    ("vortex", 0.25, "test"): (
        "583b74f64c34aee1736b26741a54dba67bd740120dc2bf2f3f859dcc8690d994"
    ),
    ("perl", 1.0, "train"): (
        "6134b7e6434fa4a95436a843ae50c5ea45cb09f89c8950c0c11705bb060cbd57"
    ),
    ("perl", 1.0, "test"): (
        "faf912885624869c86693b8d9b29cf8f996ecbf9f167682adb2d55c1f4021dfe"
    ),
}


def trace_digest(trace) -> str:
    digest = hashlib.sha256()
    for array, dtype in (
        (trace.proc_indices, np.int32),
        (trace.extent_starts, np.int64),
        (trace.extent_lengths, np.int64),
    ):
        digest.update(np.ascontiguousarray(array, dtype=dtype).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "name,scale,which",
    sorted(SUITE_TRACE_DIGESTS),
    ids=lambda value: str(value),
)
def test_suite_trace_digests_are_pinned(name, scale, which):
    workload = by_name(name).scaled(scale)
    inp = workload.train if which == "train" else workload.test
    trace = generate_trace(workload.call_graph(), inp)
    assert trace_digest(trace) == SUITE_TRACE_DIGESTS[(name, scale, which)]
