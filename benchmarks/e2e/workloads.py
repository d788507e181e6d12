"""Set-up and one repetition of each workload, via public library calls.

The seed ``S`` is the perturbation ``base_seed`` of every sweep; the
traces are the committed suite's under every seed, so ``cold-profile``,
which perturbs nothing, runs the same inputs at every seed.  Trace
seeds are left alone because they change the amount of work: the
training seed moves the popular set (115 to 134 procedures on m88ksim
over seeds 0-3, a quarter of the sweep cost) and the test seed moves
the lines a perl simulation replays (6.0 M to 7.2 M, and peak memory
from 377 MB to 429 MB).
"""

from __future__ import annotations

import statistics
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, ContextManager

from benchmarks.e2e.checks import layout_digest
from benchmarks.e2e.spec import WorkloadSpec
from benchmarks.e2e.tracing import Tracer
from repro.cache.config import PAPER_CACHE, CacheConfig
from repro.cache.simulator import simulate
from repro.core.gbsc import GBSCPlacement
from repro.core.setassoc import GBSCSetAssociativePlacement
from repro.eval.experiment import build_context
from repro.eval.randomization import perturbation_sweep
from repro.placement.base import PlacementAlgorithm, PlacementContext
from repro.placement.hkc import HashemiKaeliCalderPlacement
from repro.placement.identity import DefaultPlacement
from repro.placement.ph import PettisHansenPlacement
from repro.program.layout import Layout
from repro.program.program import Program
from repro.store import ArtifactStore
from repro.trace.callgraph import random_call_graph
from repro.trace.generator import get_or_generate_trace
from repro.trace.trace import Trace
from repro.workloads.spec import Workload
from repro.workloads.suite import by_name

ALGORITHMS: dict[str, type] = {
    "default": DefaultPlacement,
    "PH": PettisHansenPlacement,
    "HKC": HashemiKaeliCalderPlacement,
    "GBSC": GBSCPlacement,
    "GBSC-SA": GBSCSetAssociativePlacement,
}


def span(tracer: Tracer | None, name: str) -> ContextManager:
    return nullcontext() if tracer is None else tracer.span(name)


def cache_config(spec: WorkloadSpec) -> CacheConfig:
    """The paper's 8 KB cache with 32-byte lines, at the spec's
    associativity."""
    return replace(PAPER_CACHE, associativity=spec.associativity)


@dataclass
class Placed:
    """One placement cell: the algorithm, its layout and the program."""

    algorithm: str
    layout: Layout
    program: Program

    def spans(self) -> list[tuple[str, int, int]]:
        """``(name, start, end)`` of every procedure."""
        return [
            (name, address, self.layout.end_address_of(name))
            for name, address in self.layout.items()
        ]

    def digest(self) -> str:
        return layout_digest(self.spans())


class RecordingPlacement:
    """Keeps every layout the wrapped algorithm produces, in call order."""

    def __init__(
        self,
        inner: PlacementAlgorithm,
        placed: list[Placed],
        tracer: Tracer | None,
    ) -> None:
        self._inner = inner
        self._placed = placed
        self._tracer = tracer
        self.name = inner.name

    def place(self, context: PlacementContext) -> Layout:
        if self._tracer is not None:
            self._tracer.next_cell()
        layout = self._inner.place(context)
        self._placed.append(Placed(self.name, layout, context.program))
        return layout


@dataclass
class Inputs:
    """What set-up makes: the programs' workloads and, for a sweep, its
    traces and (optionally) a warm store."""

    workloads: list[Workload]
    train: Trace | None = None
    test: Trace | None = None
    store: ArtifactStore | None = None


@dataclass
class RepOutput:
    """Everything one repetition produced."""

    cells: int
    events: int
    miss_rate: float
    placed: list[Placed]
    stats: list[Any] = field(default_factory=list)
    results: dict[str, Any] = field(default_factory=dict)

    def fingerprint(self) -> dict[str, Any]:
        """The deterministic outputs: equal on every repetition.

        ``layouts`` maps each algorithm to its layout digests in call
        order; a sweep calls an algorithm on every perturbed profile
        and then on the clean one.
        """
        layouts: dict[str, list[str]] = {}
        for cell in self.placed:
            layouts.setdefault(cell.algorithm, []).append(cell.digest())
        return {"layouts": layouts, **self.results}


def seed_independent(fingerprint: dict[str, Any]) -> dict[str, Any]:
    """The part of a fingerprint no seed changes: a sweep's clean cells
    (layout digest and miss rate per algorithm), or everything a cold
    rep made."""
    if "miss_rates" not in fingerprint:
        return fingerprint
    return {
        algorithm: [fingerprint["layouts"][algorithm][-1], rates["clean"]]
        for algorithm, rates in fingerprint["miss_rates"].items()
    }


def suite_workloads(spec: WorkloadSpec) -> list[Workload]:
    return [by_name(name).scaled(spec.scale) for name in spec.programs]


def setup(spec: WorkloadSpec, scratch: Path, tracer: Tracer | None = None) -> Inputs:
    """Make the inputs a repetition reads; a sweep's traces (and warm
    store) are built here, the cold path builds everything per rep."""
    workloads = suite_workloads(spec)
    if spec.kind == "cold":
        return Inputs(workloads)
    workload = workloads[0]
    with span(tracer, "trace.random_call_graph"):
        graph = random_call_graph(workload.graph_params)
    with span(tracer, "trace.get_or_generate_trace"):
        train = get_or_generate_trace(graph, workload.train)
    with span(tracer, "trace.get_or_generate_trace"):
        test = get_or_generate_trace(graph, workload.test)
    store = None
    if spec.warm_store:
        store = ArtifactStore(tempfile.mkdtemp(dir=scratch))
        with span(tracer, "eval.build_context"):
            build_context(
                train,
                cache_config(spec),
                with_pair_db=spec.with_pair_db,
                store=store,
            )
    return Inputs(workloads, train, test, store)


def rep(
    spec: WorkloadSpec,
    inputs: Inputs,
    seed: int,
    scratch: Path,
    tracer: Tracer | None = None,
) -> RepOutput:
    """One repetition of fixed work; *scratch* holds a cold store."""
    if spec.kind == "cold":
        output = _cold_rep(spec, inputs, scratch, tracer)
    else:
        output = _sweep_rep(spec, inputs, seed, tracer)
    if tracer is not None:
        tracer.cell = None
    return output


def _sweep_rep(
    spec: WorkloadSpec, inputs: Inputs, seed: int, tracer: Tracer | None
) -> RepOutput:
    assert inputs.train is not None and inputs.test is not None
    with span(tracer, "eval.build_context"):
        context = build_context(
            inputs.train,
            cache_config(spec),
            with_pair_db=spec.with_pair_db,
            store=inputs.store,
        )
    placed: list[Placed] = []
    algorithms = [
        RecordingPlacement(ALGORITHMS[name](), placed, tracer)
        for name in spec.algorithms
    ]
    with span(tracer, "eval.perturbation_sweep"):
        sweeps = perturbation_sweep(
            context, inputs.test, algorithms, runs=spec.runs, base_seed=seed
        )
    rates = {
        sweep.algorithm: {
            "perturbed": list(sweep.miss_rates),
            "clean": sweep.unperturbed,
        }
        for sweep in sweeps
    }
    return RepOutput(
        cells=len(placed),
        events=len(inputs.train) + len(placed) * len(inputs.test),
        miss_rate=sweeps[-1].median,
        placed=placed,
        results={"miss_rates": rates},
    )


def _cold_rep(
    spec: WorkloadSpec, inputs: Inputs, scratch: Path, tracer: Tracer | None
) -> RepOutput:
    config = cache_config(spec)
    store = ArtifactStore(scratch)
    placed: list[Placed] = []
    default = RecordingPlacement(DefaultPlacement(), placed, tracer)
    stats = []
    rows = []
    events = 0
    for workload in inputs.workloads:
        with span(tracer, "trace.random_call_graph"):
            graph = random_call_graph(workload.graph_params)
        with span(tracer, "trace.get_or_generate_trace"):
            train = get_or_generate_trace(graph, workload.train, store)
        with span(tracer, "trace.get_or_generate_trace"):
            test = get_or_generate_trace(graph, workload.test, store)
        with span(tracer, "eval.build_context"):
            context = build_context(
                train, config, with_pair_db=spec.with_pair_db, store=store
            )
        layout = default.place(context)
        simulated = simulate(layout, test, config)
        stats.append(simulated)
        program = context.program
        rows.append(
            {
                "name": workload.name,
                "total_size": program.total_size,
                "total_count": len(program),
                "popular_size": program.subset_size(context.popular),
                "popular_count": len(context.popular),
                "train_events": len(train),
                "test_events": len(test),
                "default_miss_rate": simulated.miss_rate,
                "avg_q_size": context.require_trgs().select_stats.avg_q_entries,
            }
        )
        events += len(train) + len(test)
    return RepOutput(
        cells=len(placed),
        events=events,
        miss_rate=statistics.fmean(s.miss_rate for s in stats),
        placed=placed,
        stats=stats,
        results={"table1": rows},
    )
