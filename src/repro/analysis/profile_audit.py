"""Auditors for profile artifacts: graphs, the working set, pair DB.

The profile structures carry the paper's core invariants — TRG edges
are symmetric interleaving counts (Section 3), the working set ``Q``
is bounded by twice the cache size, ``TRG_select`` is procedure-
granular while ``TRG_place`` is chunk-granular (Section 4.1), and the
Section 6 pair database records proper 2-subsets.  All of them hold
silently in a correct run; these auditors re-check them on finished
artifacts so a corrupted or hand-loaded profile is caught before it
drives a placement.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.analysis.findings import Finding, Location, Severity
from repro.cache.config import CacheConfig
from repro.profiles.graph import ProfileGraph
from repro.profiles.pairdb import PairDatabase
from repro.profiles.qset import WorkingSet
from repro.profiles.trg import DEFAULT_Q_MULTIPLIER, TRGPair
from repro.program.procedure import ChunkId
from repro.program.program import Program


def _finding(rule: str, message: str, obj: str | None = None) -> Finding:
    return Finding(rule, Severity.ERROR, message, Location(obj=obj))


def audit_graph(
    graph: ProfileGraph, *, label: str = "graph"
) -> list[Finding]:
    """Structural audit of one weighted graph (WCG or either TRG).

    Rule ids: ``profile/self-edge``, ``profile/asymmetric-edge``,
    ``profile/negative-weight``, ``profile/nonfinite-weight``.
    """
    findings: list[Finding] = []
    for node in graph.nodes:
        if graph.has_edge(node, node):
            findings.append(
                _finding(
                    "profile/self-edge",
                    f"{label} has a self-edge; a code block cannot "
                    "conflict with itself",
                    obj=repr(node),
                )
            )
    for a, b, _ in graph.edges():
        forward = graph.weight(a, b)
        backward = graph.weight(b, a)
        edge = f"{a!r} -- {b!r}"
        weights = (forward,) if backward == forward else (forward, backward)
        for weight in weights:
            if not math.isfinite(weight):
                findings.append(
                    _finding(
                        "profile/nonfinite-weight",
                        f"{label} edge weight is {weight}",
                        obj=edge,
                    )
                )
            elif weight < 0:
                findings.append(
                    _finding(
                        "profile/negative-weight",
                        f"{label} edge weight {weight} is negative; "
                        "interleaving counts cannot be",
                        obj=edge,
                    )
                )
        if forward != backward:
            findings.append(
                _finding(
                    "profile/asymmetric-edge",
                    f"{label} edge weighs {forward} one way and "
                    f"{backward} the other; TRG/WCG edges are symmetric",
                    obj=edge,
                )
            )
    return findings


def audit_working_set(
    working_set: WorkingSet,
    config: CacheConfig | None = None,
    q_multiplier: int = DEFAULT_Q_MULTIPLIER,
) -> list[Finding]:
    """Audit the bounded working set ``Q`` (Section 3).

    Rule ids: ``profile/q-bound`` (capacity is not ``q_multiplier``
    times the cache size), ``profile/q-capacity`` (the eviction
    invariant is violated: the oldest entry could be removed while
    still retaining at least the capacity), ``profile/q-accounting``
    (cached total differs from the per-entry sum),
    ``profile/q-entry-size`` (a non-positive recorded size).
    """
    findings: list[Finding] = []
    entries = list(working_set.entries())
    for block, size in entries:
        if size <= 0:
            findings.append(
                _finding(
                    "profile/q-entry-size",
                    f"entry has non-positive recorded size {size}",
                    obj=repr(block),
                )
            )
    total = sum(size for _, size in entries)
    if total != working_set.total_size:
        findings.append(
            _finding(
                "profile/q-accounting",
                f"cached total size {working_set.total_size} != "
                f"{total}, the sum over entries",
            )
        )
    if entries:
        oldest_size = entries[0][1]
        if total - oldest_size >= working_set.capacity:
            findings.append(
                _finding(
                    "profile/q-capacity",
                    f"Q holds {total} bytes; evicting the oldest entry "
                    f"({oldest_size} bytes) would still retain at least "
                    f"the capacity {working_set.capacity} — eviction "
                    "(Section 3) did not run",
                )
            )
    if config is not None:
        expected = q_multiplier * config.size
        if working_set.capacity != expected:
            findings.append(
                _finding(
                    "profile/q-bound",
                    f"Q capacity is {working_set.capacity}, expected "
                    f"{q_multiplier} x cache size = {expected}",
                )
            )
    return findings


def audit_trgs(
    trgs: TRGPair,
    config: CacheConfig | None = None,
    program: Program | None = None,
) -> list[Finding]:
    """Audit a ``TRGPair``: both graphs plus granularity consistency.

    Rule ids: the :func:`audit_graph` set on each graph, plus
    ``profile/chunk-size``, ``profile/granularity`` (a select node
    that is not a procedure name / a place node that is not a
    ``ChunkId``), ``profile/chunk-bounds`` (a chunk index outside its
    procedure, needs *program*), ``profile/granularity-mismatch`` (a
    chunk of a procedure that never entered ``TRG_select``) and
    ``profile/stats`` (negative or non-finite build statistics).
    """
    findings: list[Finding] = []
    findings.extend(audit_graph(trgs.select, label="TRG_select"))
    findings.extend(audit_graph(trgs.place, label="TRG_place"))

    if trgs.chunk_size <= 0:
        findings.append(
            _finding(
                "profile/chunk-size",
                f"chunk size {trgs.chunk_size} is not positive",
            )
        )

    select_names: set[str] = set()
    for node in trgs.select.nodes:
        if not isinstance(node, str):
            findings.append(
                _finding(
                    "profile/granularity",
                    "TRG_select node is not a procedure name "
                    f"({type(node).__name__})",
                    obj=repr(node),
                )
            )
        else:
            select_names.add(node)
    for node in trgs.place.nodes:
        if not isinstance(node, ChunkId):
            findings.append(
                _finding(
                    "profile/granularity",
                    "TRG_place node is not a ChunkId "
                    f"({type(node).__name__})",
                    obj=repr(node),
                )
            )
            continue
        if node.procedure not in select_names:
            findings.append(
                _finding(
                    "profile/granularity-mismatch",
                    "TRG_place chunk belongs to a procedure absent "
                    "from TRG_select; both graphs are built from the "
                    "same filtered reference stream (Section 4.1)",
                    obj=str(node),
                )
            )
        if program is not None and node.procedure in program:
            count = program[node.procedure].num_chunks(
                max(trgs.chunk_size, 1)
            )
            if not 0 <= node.index < count:
                findings.append(
                    _finding(
                        "profile/chunk-bounds",
                        f"chunk index {node.index} outside the "
                        f"procedure's {count} chunks",
                        obj=str(node),
                    )
                )

    for name, stats in (
        ("select", trgs.select_stats),
        ("place", trgs.place_stats),
    ):
        if stats.refs_processed < 0 or not math.isfinite(
            stats.avg_q_entries
        ) or stats.avg_q_entries < 0:
            findings.append(
                _finding(
                    "profile/stats",
                    f"TRG_{name} build stats are implausible "
                    f"(refs={stats.refs_processed}, "
                    f"avg_q={stats.avg_q_entries})",
                )
            )
    return findings


def audit_pair_db(db: PairDatabase) -> list[Finding]:
    """Audit the Section 6 pair database ``D(p, {r, s})``.

    Rule ids: ``profile/pair-arity`` (a recorded key that is not an
    unordered pair of two distinct blocks), ``profile/pair-self``
    (``p`` appearing in its own pair — the working set excludes the
    endpoints), ``profile/pair-count`` (non-positive counts).
    """
    findings: list[Finding] = []
    for block in sorted(db.blocks, key=repr):
        for pair, count in sorted(
            db.pairs_for(block).items(), key=lambda item: repr(item[0])
        ):
            obj = f"D({block!r}, {set(pair)!r})"
            if len(pair) != 2:
                findings.append(
                    _finding(
                        "profile/pair-arity",
                        f"recorded pair has {len(pair)} members, not 2",
                        obj=obj,
                    )
                )
            elif block in pair:
                findings.append(
                    _finding(
                        "profile/pair-self",
                        "pair contains the block itself; intervening "
                        "blocks exclude the endpoints",
                        obj=obj,
                    )
                )
            if not isinstance(count, int) or count <= 0:
                findings.append(
                    _finding(
                        "profile/pair-count",
                        f"pair count {count!r} is not a positive integer",
                        obj=obj,
                    )
                )
    return findings


def audit_profiles(
    *,
    trgs: TRGPair | None = None,
    wcg: ProfileGraph | None = None,
    pair_db: PairDatabase | None = None,
    working_set: WorkingSet | None = None,
    config: CacheConfig | None = None,
    program: Program | None = None,
    q_multiplier: int = DEFAULT_Q_MULTIPLIER,
    extra_graphs: Iterable[tuple[str, ProfileGraph]] = (),
) -> list[Finding]:
    """Audit whichever profile artifacts are provided, in one pass."""
    findings: list[Finding] = []
    if wcg is not None:
        findings.extend(audit_graph(wcg, label="WCG"))
    if trgs is not None:
        findings.extend(audit_trgs(trgs, config=config, program=program))
    if pair_db is not None:
        findings.extend(audit_pair_db(pair_db))
    if working_set is not None:
        findings.extend(
            audit_working_set(
                working_set, config=config, q_multiplier=q_multiplier
            )
        )
    for label, graph in extra_graphs:
        findings.extend(audit_graph(graph, label=label))
    return findings
