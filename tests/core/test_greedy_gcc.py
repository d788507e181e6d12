"""The greedy loops on gcc x0.25, against the work they used to redo.

* PH pushes an edge onto the heap only when its key improves, so its
  heap traffic stays near the number of WCG edges (501), not the
  16,727 entries a re-push of every neighbour edge made.
* A GBSC merge reads each node's occupancy from the chunk index's
  memo, derived from the node's two parts, and counts its indicator
  matrices with ``np.bincount``.  Over every merge of a clean and a
  perturbed run, the memo must equal the occupancy rebuilt from the
  node's placements, and the costs must equal, bit for bit, the
  former evaluation: rebuilt occupancy and ``np.add.at`` indicators.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.cache.config import PAPER_CACHE
from repro.core.gbsc import gbsc_nodes
from repro.core.merge import ChunkWeights, merge_nodes
from repro.eval.experiment import build_context
from repro.placement.ph import PettisHansenPlacement
from repro.profiles.perturb import PAPER_SCALE
from repro.workloads.suite import by_name

#: PH's heap pushes on gcc x0.25 (1,931 when pinned).
PH_PUSH_LIMIT = 2_000


@pytest.fixture(scope="module")
def gcc_context():
    train = by_name("gcc").scaled(0.25).trace("train")
    return build_context(train, PAPER_CACHE)


def rebuilt_occupancy(weights: ChunkWeights, node):
    """The node's occupancy from every placement's pattern."""
    patterns = [weights._patterns[p.name] for p in node.placements]
    lengths = [len(pattern[0]) for pattern in patterns]
    shifts = np.repeat([p.offset for p in node.placements], lengths)
    lines = np.concatenate([pattern[0] for pattern in patterns]) + shifts
    slots = np.concatenate([pattern[1] for pattern in patterns])
    chunks = np.sort(np.concatenate([pattern[2] for pattern in patterns]))
    return lines % weights.num_lines, slots, chunks


def former_costs(weights: ChunkWeights, n1, n2) -> np.ndarray:
    """The cost vector as computed before occupancy was reused."""
    num_lines = weights.num_lines
    lines1, slots1, chunks1 = rebuilt_occupancy(weights, n1)
    lines2, slots2, chunks2 = rebuilt_occupancy(weights, n2)
    block = weights._matrix[
        np.ix_(weights._row_of[chunks1], weights._row_of[chunks2])
    ]
    linked = block.any(axis=1)
    if not linked.any():
        return np.zeros(num_lines)
    matrix = block[linked]
    rows = chunks1[linked]
    column = np.full(weights._num_slots, -1)
    column[rows] = np.arange(len(rows))
    column[chunks2] = np.arange(len(chunks2))
    kept = column[slots1] >= 0
    l1 = np.zeros((num_lines, len(rows)))
    np.add.at(l1, (lines1[kept], column[slots1[kept]]), 1.0)
    l2 = np.zeros((num_lines, len(chunks2)))
    np.add.at(l2, (lines2, column[slots2]), 1.0)
    spectrum = (
        np.fft.rfft(l1 @ matrix, axis=0) * np.conj(np.fft.rfft(l2, axis=0))
    ).sum(axis=1)
    return np.maximum(np.fft.irfft(spectrum, n=num_lines), 0.0)


def test_ph_heap_pushes(gcc_context):
    previous = obs.current()
    registry = obs.enable().registry
    try:
        PettisHansenPlacement().place(gcc_context)
    finally:
        obs.restore(previous)
    pushes = registry.counter("greedy.heap_pushes").value
    assert gcc_context.wcg.num_edges() <= pushes <= PH_PUSH_LIMIT


@pytest.mark.parametrize(
    "perturbed", [False, True], ids=["clean", "perturbed"]
)
def test_gbsc_merges_match_the_former_evaluation(gcc_context, perturbed):
    context = (
        gcc_context.perturbed(PAPER_SCALE, 1) if perturbed else gcc_context
    )
    trgs = context.require_trgs()
    weights = ChunkWeights(
        trgs.place,
        context.program,
        context.config,
        context.popular,
        trgs.chunk_size,
    )
    merges = reused = 0

    def merge(n1, n2):
        nonlocal merges, reused
        reused += sum(id(node) in weights._occupied for node in (n1, n2))
        for node in (n1, n2):
            for memo, rebuilt in zip(
                weights.occupancy(node), rebuilt_occupancy(weights, node)
            ):
                assert np.array_equal(memo, rebuilt)
        assert np.array_equal(
            weights.offset_costs(n1, n2), former_costs(weights, n1, n2)
        )
        merges += 1
        return merge_nodes(n1, n2, weights)

    nodes = gbsc_nodes(
        trgs.select,
        trgs.place,
        context.popular,
        context.program,
        context.config,
        trgs.chunk_size,
        merge=merge,
    )
    assert merges == len(context.popular) - len(nodes) > 100
    assert reused > merges // 2
    # Only the surviving merged nodes keep a memo entry.
    assert len(weights._occupied) == sum(len(node) > 1 for node in nodes)
