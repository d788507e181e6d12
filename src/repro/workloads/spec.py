"""Workload definitions: a program model plus train/test inputs.

A :class:`Workload` bundles everything one benchmark row of the paper
needs: the synthetic program (via its call-graph parameters) and the
two trace inputs — *training* (drives profiling and placement) and
*testing* (evaluates the resulting layout), mirroring the paper's
methodology of separate train/test data sets (Section 5.2).

Everything is derived deterministically from seeds, and the expensive
artifacts (call graph, traces) are memoised per process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Any

from repro.errors import ConfigError
from repro.program.program import Program
from repro.trace.callgraph import CallGraphModel, CallGraphParams, random_call_graph
from repro.trace.generator import TraceInput, get_or_generate_trace
from repro.trace.trace import Trace


@dataclass(frozen=True)
class Workload:
    """One benchmark analog: program model plus train and test inputs."""

    name: str
    graph_params: CallGraphParams
    train: TraceInput
    test: TraceInput
    description: str = ""

    def call_graph(self) -> CallGraphModel:
        return _cached_call_graph(self.graph_params)

    @property
    def program(self) -> Program:
        return self.call_graph().program

    def trace(self, which: str, store: Any = None) -> Trace:
        """The ``"train"`` or ``"test"`` trace (memoised).

        With *store* (an :class:`~repro.store.ArtifactStore`) a
        process-level memo miss consults the persistent cache before
        falling back to generation, and generated traces are stored
        for future processes.
        """
        if which == "train":
            return _cached_trace(self.graph_params, self.train, store)
        if which == "test":
            return _cached_trace(self.graph_params, self.test, store)
        raise ConfigError(f"unknown trace selector {which!r}")

    def scaled(self, factor: float) -> "Workload":
        """A copy with trace lengths scaled by *factor* (for fast runs)."""
        if not math.isfinite(factor):
            raise ConfigError(f"scale factor must be finite, got {factor}")
        if factor <= 0:
            raise ConfigError(f"scale factor must be positive, got {factor}")

        def scale(inp: TraceInput) -> TraceInput:
            return replace(
                inp, target_events=max(1000, int(inp.target_events * factor))
            )

        return replace(self, train=scale(self.train), test=scale(self.test))


@lru_cache(maxsize=32)
def _cached_call_graph(params: CallGraphParams) -> CallGraphModel:
    return random_call_graph(params)


_TRACE_MEMO: dict[tuple[CallGraphParams, TraceInput], Trace] = {}
_TRACE_MEMO_LIMIT = 64


def _cached_trace(
    params: CallGraphParams,
    inp: TraceInput,
    store: Any = None,
) -> Trace:
    """Process-level trace memo, optionally backed by a persistent
    store.

    The in-memory memo is consulted first regardless of *store* — the
    store only matters on a memo miss, where it may satisfy the trace
    from disk (and record fresh generations).  A plain dict rather
    than ``lru_cache`` because store handles are unhashable.
    """
    key = (params, inp)
    trace = _TRACE_MEMO.get(key)
    if trace is None:
        trace = get_or_generate_trace(
            _cached_call_graph(params), inp, store
        )
        if len(_TRACE_MEMO) >= _TRACE_MEMO_LIMIT:
            _TRACE_MEMO.clear()
        _TRACE_MEMO[key] = trace
    return trace


def clear_trace_memo() -> None:
    """Drop the process-level trace memo (test isolation hook)."""
    _TRACE_MEMO.clear()
