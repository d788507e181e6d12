"""End-to-end experiment pipeline: profile → place → simulate.

This is the harness behind every number in Section 5: build the
profile structures from the *training* trace, run one or more placement
algorithms, then simulate the resulting layouts on the *testing*
trace.  :func:`place_and_simulate` is that one operation; the sweeps,
grids, cross-validation and service entry points are folds over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro import obs
from repro.cache.config import CacheConfig
from repro.cache.simulator import simulate
from repro.cache.stats import MissStats
from repro.core.popular import (
    DEFAULT_COVERAGE,
    DEFAULT_MAX_POPULAR,
    select_popular,
)
from repro.placement.base import PlacementAlgorithm, PlacementContext
from repro.profiles.fast import (
    build_pair_database_fast as get_or_build_pair_database,
)
from repro.profiles.trg import DEFAULT_Q_MULTIPLIER, TRGPair, build_trgs
from repro.profiles.wcg import build_wcg as get_or_build_wcg
from repro.program.layout import Layout
from repro.program.procedure import DEFAULT_CHUNK_SIZE
from repro.store.fingerprint import trace_content_fingerprint, trg_key
from repro.trace.trace import Trace
from repro.workloads.spec import Workload

# build_context calls its three profile builders through these module
# globals because the traced pass of benchmarks/e2e patches them by
# these names.  The names stay until the ROADMAP item "e2e --trace
# folds the obs manifest" lands.  The WCG and the pair database are
# always built: a warm store hit saves too little over either build
# to pay for an encode on every cold run (docs/caching.md).


def get_or_build_trgs(
    trace: Trace,
    config: CacheConfig,
    chunk_size: int,
    popular: set[str] | None,
    q_multiplier: int,
    store: Any,
) -> TRGPair:
    """:func:`~repro.profiles.trg.build_trgs`, or its stored result.

    With *store* the pair is keyed by the trace's content fingerprint
    plus every build parameter, so a hit decodes the stored graphs
    instead of re-scanning the trace.
    """

    def build() -> TRGPair:
        return build_trgs(
            trace,
            config,
            chunk_size=chunk_size,
            popular=popular,
            q_multiplier=q_multiplier,
        )

    if store is None:
        return build()
    key = trg_key(
        trace_content_fingerprint(trace),
        config,
        chunk_size,
        popular,
        q_multiplier,
    )
    return store.get_or_build("trg", key, build)


def build_context(
    train_trace: Trace,
    config: CacheConfig,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    coverage: float = DEFAULT_COVERAGE,
    q_multiplier: int = DEFAULT_Q_MULTIPLIER,
    with_pair_db: bool = False,
    max_popular: int | None = DEFAULT_MAX_POPULAR,
    store: Any = None,
) -> PlacementContext:
    """Profile a training trace into a :class:`PlacementContext`.

    Builds the WCG, both TRGs (popular procedures only, Section 4) and
    optionally the Section 6 pair database (procedure granularity).
    With *store* (an :class:`~repro.store.ArtifactStore`) the TRG pair
    is fetched from the cache when an identical build was stored
    before; the result is identical either way.
    """
    program = train_trace.program
    with obs.span(
        "build_context",
        events=len(train_trace),
        procedures=len(program),
    ):
        with obs.span("select_popular"):
            popular = select_popular(
                train_trace, coverage=coverage, max_procedures=max_popular
            )
        popular_set = set(popular.procedures)
        with obs.span("build_wcg"):
            wcg = get_or_build_wcg(train_trace)
        trgs = get_or_build_trgs(
            train_trace, config, chunk_size, popular_set, q_multiplier, store
        )
        pair_db = None
        if with_pair_db:
            pair_db, _ = get_or_build_pair_database(
                train_trace, popular_set, q_multiplier * config.size
            )
    obs.set_gauge("profile.popular_procedures", len(popular.procedures))
    obs.set_gauge("profile.total_procedures", len(program))
    return PlacementContext(
        program=program,
        config=config,
        wcg=wcg,
        trgs=trgs,
        popular=popular.procedures,
        pair_db=pair_db,
    )


@dataclass(frozen=True)
class AlgorithmOutcome:
    """One algorithm's layout and its simulated test performance."""

    algorithm: str
    layout: Layout
    stats: MissStats

    @property
    def miss_rate(self) -> float:
        return self.stats.miss_rate


@dataclass(frozen=True)
class ExperimentResult:
    """Outcomes for a set of algorithms on one train/test pair."""

    outcomes: tuple[AlgorithmOutcome, ...]

    def __getitem__(self, algorithm: str) -> AlgorithmOutcome:
        for outcome in self.outcomes:
            if outcome.algorithm == algorithm:
                return outcome
        raise KeyError(algorithm)

    def miss_rates(self) -> Mapping[str, float]:
        return {o.algorithm: o.miss_rate for o in self.outcomes}

    def best(self) -> AlgorithmOutcome:
        return min(self.outcomes, key=lambda o: o.miss_rate)


def place_and_simulate(
    context: PlacementContext,
    test_trace: Trace,
    algorithm: PlacementAlgorithm,
) -> AlgorithmOutcome:
    """Place with *algorithm* on *context*, then simulate the layout on
    *test_trace*.

    The only code that runs a placement, so every entry point records
    one ``place`` span per layout.  Perturbing the profile is the
    caller's job: pass a perturbed context.
    """
    with obs.span("place", algorithm=algorithm.name):
        layout = algorithm.place(context)
    stats = simulate(layout, test_trace, context.config)
    return AlgorithmOutcome(
        algorithm=algorithm.name, layout=layout, stats=stats
    )


def run_experiment(
    context: PlacementContext,
    test_trace: Trace,
    algorithms: Iterable[PlacementAlgorithm],
) -> ExperimentResult:
    """Place with every algorithm and simulate each layout on the test
    trace."""
    return ExperimentResult(
        tuple(
            place_and_simulate(context, test_trace, algorithm)
            for algorithm in algorithms
        )
    )


def run_workload_experiment(
    workload: Workload,
    config: CacheConfig,
    algorithms: Iterable[PlacementAlgorithm],
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    coverage: float = DEFAULT_COVERAGE,
    with_pair_db: bool = False,
    test_on_train: bool = False,
) -> ExperimentResult:
    """Convenience wrapper running a suite workload end to end.

    ``test_on_train=True`` evaluates on the training trace itself —
    the paper's "train/test same" check for m88ksim (Section 5.3).
    """
    train = workload.trace("train")
    test = train if test_on_train else workload.trace("test")
    context = build_context(
        train,
        config,
        chunk_size=chunk_size,
        coverage=coverage,
        with_pair_db=with_pair_db,
    )
    return run_experiment(context, test, algorithms)
