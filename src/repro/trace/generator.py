"""Stochastic call/return trace generation.

Given a :class:`~repro.trace.callgraph.CallGraphModel`, the generator
executes a seeded stochastic call/return process: an explicit stack of
activations, each activation running a loop that invokes callees chosen
by call-site weight.  Entering a callee emits an *entry extent* for it;
returning emits a *resume extent* for the caller.  Per-activation
cursors make successive extents walk through a procedure's body, which
gives the chunk-level TRG (Section 4.1) real intra-procedure structure
to observe.

Phase behaviour — the property that motivates the TRG over the WCG
(Figure 1, trace #2) — is modelled by re-skewing every procedure's
call-site weights a configurable number of times over the trace, so
different parts of the trace alternate among different callee subsets.
"""

from __future__ import annotations

import random as _random
from bisect import bisect_right
from dataclasses import asdict, dataclass
from math import log
from typing import Any

import numpy as np

from repro import obs
from repro.errors import ConfigError, TraceError
from repro.trace.callgraph import (
    CallGraphModel,
    CallGraphParams,
    ProcedureModel,
)
from repro.trace.trace import Trace

#: ``b - a`` of the ``uniform(0.6, 1.4)`` draw that scales an extent.
_UNIFORM_SPAN = 1.4 - 0.6


@dataclass(frozen=True, slots=True)
class TraceInput:
    """One program input: the knobs that vary between train and test runs.

    Attributes
    ----------
    name:
        Label ("train", "test", ...) used in reports.
    seed:
        Seed for all stochastic choices of this run.
    target_events:
        Approximate number of trace events to generate.
    phases:
        Number of distinct phases; each phase re-skews call-site
        weights, changing which callees alternate.
    phase_skew:
        Log-normal sigma of the per-phase weight multipliers.  ``0``
        disables phase behaviour.
    body_scale:
        Multiplier on every procedure's ``body_fraction`` — different
        inputs exercise different amounts of each procedure.
    max_depth:
        Call-stack depth limit; deeper calls are suppressed.
    """

    name: str
    seed: int
    target_events: int
    phases: int = 4
    phase_skew: float = 0.8
    body_scale: float = 1.0
    max_depth: int = 16

    def __post_init__(self) -> None:
        if self.target_events <= 0:
            raise TraceError("target_events must be positive")
        if self.phases < 1:
            raise TraceError("phases must be >= 1")
        if self.phase_skew < 0:
            raise TraceError("phase_skew must be >= 0")
        if not 0 < self.body_scale <= 2.0:
            raise TraceError("body_scale must be in (0, 2]")
        if self.max_depth < 1:
            raise TraceError("max_depth must be >= 1")


class _PhaseTables:
    """Per-(procedure, phase) cumulative call-site weights, built lazily."""

    def __init__(
        self, graph: CallGraphModel, inp: TraceInput
    ) -> None:
        self._graph = graph
        self._inp = inp
        self._cache: dict[tuple[str, int], tuple[list[float], list[str]]] = {}

    def sites_for(
        self, model: ProcedureModel, phase: int
    ) -> tuple[list[float], list[str]]:
        """Cumulative weights and callee names for a procedure in a phase."""
        key = (model.name, phase)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        # A string-seeded Random is deterministic across processes
        # (unlike hash()-based seeding).
        rng = _random.Random(f"{self._inp.seed}:{phase}:{model.name}")
        cumulative: list[float] = []
        callees: list[str] = []
        total = 0.0
        for site in model.call_sites:
            multiplier = (
                rng.lognormvariate(0.0, self._inp.phase_skew)
                if self._inp.phase_skew > 0
                else 1.0
            )
            total += site.weight * multiplier
            cumulative.append(total)
            callees.append(site.callee)
        entry = (cumulative, callees)
        self._cache[key] = entry
        return entry


def generate_trace(graph: CallGraphModel, inp: TraceInput) -> Trace:
    """Run the stochastic call/return process and return the trace."""
    with obs.span(
        "gen_trace",
        input=inp.name,
        seed=inp.seed,
        target_events=inp.target_events,
    ):
        trace = _generate_trace(graph, inp)
    obs.inc("trace.events_emitted", len(trace))
    return trace


def trace_key(params: CallGraphParams, inp: TraceInput) -> dict[str, Any]:
    """Store key of a generated trace: its recipe.

    A seeded trace is fully fixed by its program's call-graph
    parameters, its input knobs and the generator's code version (the
    store mixes in the ``trace`` builder salt), so neither the call
    graph nor the trace is needed to key it.
    """
    return {"recipe": asdict(params), "input": asdict(inp)}


def get_or_generate_trace(
    graph: CallGraphModel, inp: TraceInput, store: Any = None
) -> Trace:
    """Cache-aware :func:`generate_trace`.

    With *store* (an :class:`~repro.store.ArtifactStore`, or None to
    disable caching) a trace of the same recipe (:func:`trace_key`) is
    decoded from the store instead of re-run; a miss generates, stores
    and returns.  The returned trace is byte-for-byte equivalent to a
    fresh generation either way.  Only a graph made by
    :func:`~repro.trace.callgraph.random_call_graph` has a recipe, so a
    hand-built graph with a store is a :class:`~repro.errors.ConfigError`.
    """
    if store is None:
        return generate_trace(graph, inp)
    if graph.params is None:
        raise ConfigError(
            "a hand-built call graph has no recipe to key the store by; "
            "generate its trace without a store"
        )
    return store.get_or_build(
        "trace",
        trace_key(graph.params, inp),
        lambda: generate_trace(graph, inp),
    )


def _generate_trace(graph: CallGraphModel, inp: TraceInput) -> Trace:
    """The call/return process as one lean loop.

    All draws come from one ``Random(inp.seed)`` in a fixed order: a
    call site (``random``), then the callee's invocation count
    (``expovariate``), then its entry extent's length (``uniform``).
    ``uniform(0.6, 1.4)`` and ``expovariate(rate)`` are written out
    as the standard library defines them, so the loop makes exactly
    their draws without their call overhead.  The stack is three
    parallel lists (procedure index, invocations left, body cursor)
    and per-procedure constants are looked up by procedure index.
    """
    random = _random.Random(inp.seed).random
    tables = _PhaseTables(graph, inp)
    program = graph.program
    index_of = {name: i for i, name in enumerate(program.names)}
    models = [graph.model_of(name) for name in program.names]
    sizes = [model.procedure.size for model in models]
    # Mean extent bytes of an entry (scale 1.0) and of a resume in the
    # caller after a return (scale 0.5).
    entry_bytes = [
        model.procedure.size * model.body_fraction * inp.body_scale
        for model in models
    ]
    resume_bytes = [mean * 0.5 for mean in entry_bytes]
    # ``expovariate``'s rate; None for a procedure that calls nothing.
    rates = [
        1.0 / model.mean_invocations if model.mean_invocations > 0 else None
        for model in models
    ]
    phases = inp.phases
    # Per phase and caller index: (cumulative weights, last site index,
    # callee indices), or an empty list for a caller without sites.
    site_tables: list[list[Any]] = [[None] * len(models) for _ in range(phases)]
    root = index_of[graph.root]
    max_depth = inp.max_depth
    target = inp.target_events

    procs: list[int] = []
    starts: list[int] = []
    lengths: list[int] = []
    stack: list[int] = []
    remaining: list[int] = []
    cursors: list[int] = []
    emitted = 0
    while emitted < target:
        top = len(stack) - 1
        if top >= 0 and (remaining[top] <= 0 or top + 1 >= max_depth):
            stack.pop()
            remaining.pop()
            cursors.pop()
            if not top:
                continue  # the stack emptied: the next step pushes a root
            # Resume extent in the caller after the return.
            top -= 1
            proc = stack[top]
            mean = resume_bytes[proc]
        else:
            if top < 0:
                proc = root
            else:
                remaining[top] -= 1
                caller = stack[top]
                phase = min(phases - 1, emitted * phases // target)
                sites = site_tables[phase][caller]
                if sites is None:
                    cumulative, callees = tables.sites_for(
                        models[caller], phase
                    )
                    sites = callees and [
                        cumulative,
                        len(cumulative) - 1,
                        [index_of[callee] for callee in callees],
                    ]
                    site_tables[phase][caller] = sites
                if not sites:
                    remaining[top] = 0
                    continue
                cumulative, last, callees = sites
                chosen = bisect_right(cumulative, random() * cumulative[-1])
                proc = callees[chosen if chosen < last else last]
            rate = rates[proc]
            stack.append(proc)
            remaining.append(
                0 if rate is None else 1 + int(-log(1.0 - random()) / rate)
            )
            cursors.append(0)
            top += 1
            mean = entry_bytes[proc]
        # One extent for the activation at ``top``, advancing its cursor.
        size = sizes[proc]
        nbytes = int(mean * (0.6 + _UNIFORM_SPAN * random()))
        if nbytes > size:
            nbytes = size
        if nbytes < 4:
            nbytes = 4
        cursor = cursors[top]
        procs.append(proc)
        starts.append(cursor)
        if cursor + nbytes <= size:
            lengths.append(nbytes)
            emitted += 1
        else:
            head = size - cursor
            lengths.append(head)
            procs.append(proc)
            starts.append(0)
            lengths.append(nbytes - head)
            emitted += 2
        cursors[top] = (cursor + nbytes) % size

    return Trace.from_arrays(
        program,
        np.asarray(procs, dtype=np.int32),
        np.asarray(starts, dtype=np.int64),
        np.asarray(lengths, dtype=np.int64),
    )
