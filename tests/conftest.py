"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterator

import pytest

from repro.cache.config import CacheConfig
from repro.profiles.graph import WeightedGraph
from repro.profiles.trg import TRGBuildStats, TRGPair
from repro.program.procedure import ChunkId
from repro.program.program import Program
from repro.trace.events import TraceEvent
from repro.trace.trace import Trace

#: A checkpoint a parallel run wrote before grids ran serially only:
#: ``compare m88ksim --runs 1`` on m88ksim x0.02 with two workers,
#: killed at ``cell:*:PH:clean``.  Its task records carry ``worker``
#: ids.  Copy it before resuming; never write into it.
POOL_CHECKPOINT = Path(__file__).parent / "data" / "pool_checkpoint"


def cold_process_caches() -> None:
    """Forget the in-process trace and call-graph memos, so the next
    run generates (or reads from its store) as a fresh process would."""
    from repro.workloads.spec import _cached_call_graph, clear_trace_memo

    clear_trace_memo()
    _cached_call_graph.cache_clear()


@pytest.fixture(scope="session", autouse=True)
def tier1_manifest() -> Iterator[None]:
    """Observe the whole test session when ``REPRO_TEST_MANIFEST`` names
    an output path (CI uploads it as a workflow artifact).

    Off by default so local runs stay unobserved; obs unit tests that
    install their own state nest safely inside this session.
    """
    out = os.environ.get("REPRO_TEST_MANIFEST")
    if not out:
        yield
        return
    from repro.obs import RunSession

    session = RunSession(command="tier1-tests", metrics_out=out)
    try:
        yield
    finally:
        session.finish()


@pytest.fixture
def three_line_cache() -> CacheConfig:
    """The paper's Figure 1 toy: a 3-line direct-mapped cache."""
    return CacheConfig(size=96, line_size=32)


@pytest.fixture
def paper_cache() -> CacheConfig:
    """The 8 KB, 32 B line direct-mapped cache of Section 5.2."""
    return CacheConfig(size=8192, line_size=32)


@pytest.fixture
def figure1_program() -> Program:
    """Four single-line procedures: M and the leaves X, Y, Z."""
    return Program.from_sizes({"M": 32, "X": 32, "Y": 32, "Z": 32})


def full_trace(program: Program, names: list[str]) -> Trace:
    """A trace where each reference executes the whole procedure."""
    return Trace(
        program,
        [TraceEvent.full(name, program.size_of(name)) for name in names],
    )


def figure1_trace2_refs(iterations: int = 40) -> list[str]:
    """Trace #2 of Figure 1: cond true for all iterations, then false.

    Each loop iteration is M -> leaf -> M -> Z (M calls X or Y, then Z).
    """
    refs: list[str] = []
    for leaf in ("X", "Y"):
        for _ in range(iterations):
            refs.extend(["M", leaf, "M", "Z"])
    return refs


def figure1_trace1_refs(iterations: int = 40) -> list[str]:
    """Trace #1 of Figure 1: cond alternates every iteration."""
    refs: list[str] = []
    for index in range(2 * iterations):
        leaf = "X" if index % 2 == 0 else "Y"
        refs.extend(["M", leaf, "M", "Z"])
    return refs


def small_trg_pair() -> TRGPair:
    """A TRG pair with one edge per graph: a value of the store's
    ``trg`` kind small enough for store-mechanics tests."""
    select, place = WeightedGraph(), WeightedGraph()
    select.add_edge("a", "b", 2.0)
    place.add_edge(ChunkId("a", 0), ChunkId("b", 1), 1.0)
    stats = TRGBuildStats(4, 1.5, 0)
    return TRGPair(select, place, stats, stats, 32)
