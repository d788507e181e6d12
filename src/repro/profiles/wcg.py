"""Weighted call graph (WCG) construction (Section 2).

Following the paper's PH implementation, the edge weight between two
procedures is the total number of *control-flow transitions* between
them in the trace — calls and returns both count, so weights are twice
those of a classic call-count WCG (which does not change the placement
PH produces).

Our traces record every activation extent, including the resume extent
a return produces, so transitions are simply adjacent distinct
procedure references.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.profiles.graph import WeightedGraph
from repro.trace.trace import Trace


def collapse_consecutive(values: np.ndarray) -> np.ndarray:
    """Drop elements equal to their immediate predecessor."""
    if len(values) == 0:
        return values
    keep = np.empty(len(values), dtype=bool)
    keep[0] = True
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def build_wcg(trace: Trace) -> WeightedGraph:
    """Build the transition-count WCG of a trace.

    Every touched procedure appears as a node even if it never
    transitions (single-procedure traces produce a one-node graph).
    """
    graph = WeightedGraph()
    names = trace.program.names
    refs = collapse_consecutive(np.asarray(trace.proc_indices))
    for index in np.unique(trace.proc_indices):
        graph.add_node(names[index])
    if len(refs) < 2:
        return graph
    a = refs[:-1].astype(np.int64)
    b = refs[1:].astype(np.int64)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    keys = lo * len(names) + hi
    unique_keys, counts = np.unique(keys, return_counts=True)
    for key, count in zip(unique_keys, counts):
        p = names[int(key) // len(names)]
        q = names[int(key) % len(names)]
        graph.set_weight(p, q, float(count))
    return graph


def build_wcg_from_refs(refs: Iterable[str]) -> WeightedGraph:
    """WCG from a plain sequence of procedure references.

    Convenience for small hand-written traces (the paper's Figure 1
    examples); adjacent duplicate references are collapsed first.
    """
    graph = WeightedGraph()
    previous: str | None = None
    for name in refs:
        graph.add_node(name)
        if previous is not None and previous != name:
            graph.add_edge(previous, name, 1.0)
        if previous != name:
            previous = name
    return graph
