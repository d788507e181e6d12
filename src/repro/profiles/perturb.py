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

import numpy as np

from repro.errors import ConfigError
from repro.profiles.graph import (
    FrozenGraph,
    ProfileGraph,
    _natural,  # noqa: F401  (re-exported; historical home of the helper)
    structural_node_key,  # noqa: F401  (the canonical order's key)
)

#: The scaling factor used in the paper's experiments.
PAPER_SCALE = 0.1


def perturbed(
    graph: ProfileGraph, scale: float, seed: int
) -> FrozenGraph:
    """A perturbed copy of *graph* with weights ``w * exp(scale * X)``.

    Edges are visited in canonical *structural* order (see
    :meth:`~repro.profiles.graph.ProfileGraph.canonical_edges`, which a
    frozen graph computes once) so the same seed always yields the
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
    view = graph.canonical_edges()
    gauss = _random.Random(seed).gauss
    exp = math.exp
    # One draw per edge in canonical order, scaled by math.exp: np.exp
    # can differ in the last ulp, which would change perturbed layouts.
    weights = [
        weight * exp(scale * gauss(0.0, 1.0))
        for weight in view.weights.tolist()
    ]
    return view.reweighted(np.array(weights, dtype=np.float64))
