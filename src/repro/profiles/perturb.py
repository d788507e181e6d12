"""Multiplicative random perturbation of profile graphs (Section 5.1).

Greedy layout algorithms are extremely sensitive to statistically
insignificant differences in edge weights, so the paper evaluates each
algorithm on many copies of the profile data perturbed by
``w' = w * exp(s * X)`` with ``X ~ N(0, 1)``.  Multiplicative noise
keeps weights positive and is self-scaling (reasonable ``s`` values do
not depend on the magnitude of the weights); the paper uses
``s = 0.1``.
"""

from __future__ import annotations

import math
import random as _random

from repro.errors import ConfigError
from repro.profiles.graph import (
    WeightedGraph,
    _natural,  # noqa: F401  (re-exported; historical home of the helper)
    structural_node_key,
)

#: The scaling factor used in the paper's experiments.
PAPER_SCALE = 0.1


def perturbed(
    graph: WeightedGraph, scale: float, seed: int
) -> WeightedGraph:
    """A perturbed copy of *graph* with weights ``w * exp(scale * X)``.

    Edges are visited in canonical *structural* order (see
    :func:`structural_node_key`) so the same seed always yields the
    same perturbation regardless of graph construction history.
    ``scale = 0`` returns an exact copy.

    .. note::
       Earlier releases canonicalised with ``repr``-lexicographic
       ordering, which sorts ``p10`` before ``p2`` — the assignment of
       Gaussian draws to edges silently depended on digit widths in
       node names.  With the structural key a given seed produces a
       *different* (equally valid) perturbation than it did before the
       fix; per-seed results are not comparable across that boundary.
    """
    if scale < 0:
        raise ConfigError(f"perturbation scale must be >= 0, got {scale}")
    gauss = _random.Random(seed).gauss
    keys = {node: structural_node_key(node) for node in graph.nodes}
    out = WeightedGraph()
    for node in sorted(keys, key=keys.__getitem__):
        out.add_node(node)
    edges = sorted(
        graph.edges(), key=lambda edge: (keys[edge[0]], keys[edge[1]])
    )
    # One draw per edge in sorted order, scaled by math.exp: np.exp can
    # differ in the last ulp, which would change perturbed layouts.
    out.set_edges(
        (a, b, weight * math.exp(scale * gauss(0.0, 1.0)))
        for a, b, weight in edges
    )
    return out
