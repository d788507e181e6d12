"""The Pettis & Hansen procedure-placement algorithm (Section 2).

PH greedily coalesces the weighted call graph: repeatedly take the
heaviest edge of a *working graph*, merge its two endpoint nodes
(summing parallel edges), and combine the nodes' procedure *chains*.
When chains A and B combine there are four candidate orders — AB, AB',
A'B, A'B' (primes are reversals) — and PH picks the one that minimizes
the byte distance between the two procedures connected by the heaviest
*original* edge crossing the chains.  With ``p`` in A and ``q`` in B,
that distance is the bytes after ``p`` in A (before it, if A is
reversed) plus the bytes before ``q`` in B (after it, if B is
reversed), so one pass over each chain scores all four orders.

The heaviest-edge search is :func:`~repro.profiles.graph.coalesce`,
the lazy max-heap loop GBSC shares: a merge pushes only the edges
whose key it improved, and stale entries are discarded on pop, giving
O(E log E) overall instead of a linear scan per merge.
"""

from __future__ import annotations

from typing import Iterable

from repro.placement.base import PlacementContext
from repro.profiles.graph import ProfileGraph, coalesce
from repro.program.layout import Layout
from repro.program.program import Program


class PettisHansenPlacement:
    """Procedure placement following Pettis & Hansen (PLDI'90)."""

    name = "PH"

    def place(self, context: PlacementContext) -> Layout:
        order = ph_order(context.program, context.wcg)
        return Layout.from_order(context.program, order)


def ph_order(program: Program, wcg: ProfileGraph) -> list[str]:
    """The PH procedure order (exposed separately for testing)."""
    working = wcg.copy()
    chains: dict[str, list[str]] = {
        node: [node] for node in working.nodes
    }
    sizes = {name: program.size_of(name) for name in chains}

    for u, v in coalesce(working):
        _combine_chains(chains, u, v, wcg, sizes)

    ordered_chains = sorted(
        chains.values(),
        key=lambda chain: (-_chain_strength(chain, wcg), chain[0]),
    )
    order = [name for chain in ordered_chains for name in chain]
    placed = set(order)
    order.extend(n for n in program.names if n not in placed)
    return order


def _chain_strength(chain: Iterable[str], wcg: ProfileGraph) -> float:
    """Total original edge weight incident to the chain's members."""
    return sum(
        wcg.weight(member, neighbor)
        for member in chain
        for neighbor in wcg.neighbors(member)
    )


def _combine_chains(
    chains: dict[str, list[str]],
    u: str,
    v: str,
    original: ProfileGraph,
    sizes: dict[str, int],
) -> None:
    """Merge chain of *v* into chain of *u*, choosing the best of the
    four concatenation orders (AB, AB', A'B, A'B'); ties go to the
    first."""
    chain_a = chains[u]
    chain_b = chains[v]
    p, q = _heaviest_cross_edge(chain_a, chain_b, original)
    before_p, after_p = _bytes_around(chain_a, p, sizes)
    before_q, after_q = _bytes_around(chain_b, q, sizes)
    distances = (
        after_p + before_q,  # AB
        after_p + after_q,  # AB'
        before_p + before_q,  # A'B
        before_p + after_q,  # A'B'
    )
    best = distances.index(min(distances))
    if best >= 2:
        chain_a = chain_a[::-1]
    if best % 2:
        chain_b = chain_b[::-1]
    chains[u] = chain_a + chain_b
    del chains[v]


def _bytes_around(
    chain: list[str], member: str, sizes: dict[str, int]
) -> tuple[int, int]:
    """Bytes before and after *member* in a contiguous *chain*."""
    before = after = 0
    seen = False
    for name in chain:
        if name == member:
            seen = True
        elif seen:
            after += sizes[name]
        else:
            before += sizes[name]
    return before, after


def _heaviest_cross_edge(
    chain_a: list[str], chain_b: list[str], original: ProfileGraph
) -> tuple[str, str]:
    """The heaviest original edge with one endpoint in each chain."""
    members_b = set(chain_b)
    # Scan from the smaller side for speed; weights are symmetric.
    if len(chain_a) > len(chain_b):
        q, p = _heaviest_cross_edge(chain_b, chain_a, original)
        return p, q
    best: tuple[float, str, str] | None = None
    for p in chain_a:
        for neighbor in original.neighbors(p):
            if neighbor not in members_b:
                continue
            weight = original.weight(p, neighbor)
            key = (-weight, p, neighbor)
            if best is None or key < (best[0], best[1], best[2]):
                best = (-weight, p, neighbor)
    if best is None:
        # The working-graph edge weight is a sum of original cross
        # edges, so a cross edge must exist; fall back defensively.
        return chain_a[0], chain_b[0]
    return best[1], best[2]
