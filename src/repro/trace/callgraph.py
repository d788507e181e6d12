"""Synthetic static call graphs.

The paper profiles SPECint95 binaries; we do not have those binaries or
their traces, so (per DESIGN.md) we substitute seeded synthetic
programs whose *static* statistics match Table 1 — total code size,
procedure count, and the size/count of the hot ("popular") subset — and
whose call structure produces the kind of interleaving the TRG is
designed to capture: driver loops alternating among sets of callees,
deep call chains, and a long tail of rarely or never executed
procedures.
"""

from __future__ import annotations

import math
import random as _random
from dataclasses import dataclass
from typing import Mapping

from repro import obs
from repro.errors import ProgramError
from repro.program.procedure import Procedure
from repro.program.program import Program


@dataclass(frozen=True, slots=True)
class CallSite:
    """A static call site: the callee and a relative execution weight."""

    callee: str
    weight: float

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ProgramError(
                f"call-site weight must be positive, got {self.weight}"
            )


@dataclass(frozen=True, slots=True)
class ProcedureModel:
    """Dynamic behaviour model for one procedure.

    Attributes
    ----------
    procedure:
        The static procedure (name and byte size).
    call_sites:
        Callees this procedure may invoke, with relative weights.
    mean_invocations:
        Mean number of callee invocations per activation (the loop
        trip count of the procedure's call loop).
    body_fraction:
        Mean fraction of the procedure body executed per extent.
    """

    procedure: Procedure
    call_sites: tuple[CallSite, ...] = ()
    mean_invocations: float = 0.0
    body_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.mean_invocations < 0:
            raise ProgramError("mean_invocations must be >= 0")
        if not 0.0 < self.body_fraction <= 1.0:
            raise ProgramError(
                f"body_fraction must be in (0, 1], got {self.body_fraction}"
            )

    @property
    def name(self) -> str:
        return self.procedure.name

    @property
    def is_leaf(self) -> bool:
        return not self.call_sites


class CallGraphModel:
    """A whole-program model: procedures plus their call behaviour.

    *params* records the recipe of a model built by
    :func:`random_call_graph`; it is None for a hand-built model.
    """

    def __init__(
        self,
        root: str,
        models: Mapping[str, ProcedureModel],
        params: CallGraphParams | None = None,
    ) -> None:
        self._models = dict(models)
        if root not in self._models:
            raise ProgramError(f"root procedure {root!r} is not in the model")
        for model in self._models.values():
            for site in model.call_sites:
                if site.callee not in self._models:
                    raise ProgramError(
                        f"{model.name!r} calls unknown procedure "
                        f"{site.callee!r}"
                    )
        self._root = root
        self._params = params
        self._program = Program(
            model.procedure for model in self._models.values()
        )

    @property
    def root(self) -> str:
        return self._root

    @property
    def program(self) -> Program:
        return self._program

    @property
    def params(self) -> CallGraphParams | None:
        return self._params

    def model_of(self, name: str) -> ProcedureModel:
        try:
            return self._models[name]
        except KeyError:
            raise ProgramError(f"unknown procedure {name!r}") from None

    def __len__(self) -> int:
        return len(self._models)

    def reachable(self) -> set[str]:
        """Names of procedures reachable from the root."""
        seen: set[str] = set()
        frontier = [self._root]
        while frontier:
            name = frontier.pop()
            if name in seen:
                continue
            seen.add(name)
            frontier.extend(
                site.callee for site in self._models[name].call_sites
            )
        return seen


@dataclass(frozen=True, slots=True)
class CallGraphParams:
    """Parameters for :func:`random_call_graph`.

    The defaults produce a mid-size program; the workload suite
    (``repro.workloads.suite``) overrides them per benchmark analog to
    match the Table 1 statistics.
    """

    n_procedures: int = 400
    hot_procedures: int = 40
    seed: int = 0
    mean_size: int = 600
    sigma_size: float = 0.9
    min_size: int = 32
    max_size: int = 24576
    hot_mean_size: int | None = None
    depth: int = 6
    mean_fanout: float = 3.0
    hot_bias: float = 25.0
    mean_invocations: float = 4.0
    root_invocations: float = 64.0
    leaf_probability: float = 0.2

    def __post_init__(self) -> None:
        if self.n_procedures < 2:
            raise ProgramError("need at least 2 procedures")
        if not 0 < self.hot_procedures <= self.n_procedures:
            raise ProgramError(
                "hot_procedures must be in [1, n_procedures]"
            )
        if self.depth < 1:
            raise ProgramError("depth must be >= 1")
        if self.min_size <= 0 or self.max_size < self.min_size:
            raise ProgramError("invalid size bounds")


def _sample_size(
    rng: _random.Random, mean: int, sigma: float, lo: int, hi: int
) -> int:
    """Lognormal byte size with the requested mean, clipped to [lo, hi]."""
    mu = math.log(mean) - sigma * sigma / 2.0
    size = int(rng.lognormvariate(mu, sigma))
    return max(lo, min(hi, size))


def random_call_graph(params: CallGraphParams) -> CallGraphModel:
    """Generate a seeded random hierarchical call graph.

    Structure: a designated root driver at level 0; every other
    procedure is assigned a level in ``1..depth`` and calls procedures
    at strictly deeper levels (mostly the next level).  A subset of
    ``hot_procedures`` is designated *hot*: call sites targeting hot
    procedures receive a large weight multiplier, so the dynamic
    working set concentrates on them — mirroring the popular-procedure
    structure of Table 1.  Unreachable procedures are allowed (and
    realistic: gcc has 2005 procedures of which 136 are popular).
    The returned model records *params* as its recipe.
    """
    with obs.span(
        "random_call_graph",
        procedures=params.n_procedures,
        seed=params.seed,
    ):
        return _random_call_graph(params)


def _random_call_graph(params: CallGraphParams) -> CallGraphModel:
    rng = _random.Random(params.seed)
    names = [f"f{i:04d}" for i in range(params.n_procedures)]
    root = names[0]

    hot_mean = params.hot_mean_size or params.mean_size
    hot = set(rng.sample(names[1:], params.hot_procedures - 1))
    hot.add(root)

    sizes: dict[str, int] = {}
    for name in names:
        mean = hot_mean if name in hot else params.mean_size
        sizes[name] = _sample_size(
            rng, mean, params.sigma_size, params.min_size, params.max_size
        )

    levels: dict[str, int] = {root: 0}
    for name in names[1:]:
        levels[name] = rng.randint(1, params.depth)

    by_level: dict[int, list[str]] = {}
    for name, level in levels.items():
        by_level.setdefault(level, []).append(name)

    models: dict[str, ProcedureModel] = {}
    for name in names:
        level = levels[name]
        is_leaf = level >= params.depth or (
            name != root and rng.random() < params.leaf_probability
        )
        sites: list[CallSite] = []
        if not is_leaf:
            fanout = 1 + _poisson(rng, params.mean_fanout)
            for _ in range(fanout):
                callee_level = min(
                    params.depth,
                    level + (1 if rng.random() < 0.8 else 2),
                )
                pool = _deeper_pool(by_level, callee_level, params.depth)
                if not pool:
                    continue
                callee = rng.choice(pool)
                if callee == name:
                    continue
                weight = rng.lognormvariate(0.0, 1.0)
                if callee in hot:
                    weight *= params.hot_bias
                sites.append(CallSite(callee, weight))
        invocations = (
            params.root_invocations
            if name == root
            else params.mean_invocations * rng.uniform(0.5, 2.0)
        )
        body_fraction = _body_fraction(rng, sizes[name])
        models[name] = ProcedureModel(
            procedure=Procedure(name, sizes[name]),
            call_sites=tuple(sites),
            mean_invocations=invocations if sites else 0.0,
            body_fraction=body_fraction,
        )

    models = _ensure_hot_reachable(rng, root, models, hot)
    return CallGraphModel(root, models, params)


def _poisson(rng: _random.Random, mean: float) -> int:
    """Knuth's Poisson sampler (means here are small)."""
    threshold = math.exp(-mean)
    count = 0
    product = rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count


def _deeper_pool(
    by_level: dict[int, list[str]], level: int, depth: int
) -> list[str]:
    """Procedures at *level*, falling back to any deeper level."""
    for candidate in range(level, depth + 1):
        pool = by_level.get(candidate)
        if pool:
            return pool
    return []


def _body_fraction(rng: _random.Random, size: int) -> float:
    """Large procedures execute a smaller fraction of their body."""
    if size <= 512:
        return rng.uniform(0.6, 1.0)
    if size <= 4096:
        return rng.uniform(0.3, 0.8)
    return rng.uniform(0.1, 0.4)


def _ensure_hot_reachable(
    rng: _random.Random,
    root: str,
    models: dict[str, ProcedureModel],
    hot: set[str],
) -> dict[str, ProcedureModel]:
    """Wire unreachable hot procedures into the root's call loop.

    The hot set is the intended dynamic working set, so every hot
    procedure must be reachable; a hot procedure the random wiring
    missed gets a direct call site from the root.
    """
    graph = CallGraphModel(root, models)
    reachable = graph.reachable()
    missing = sorted(hot - reachable)
    if not missing:
        return models
    root_model = models[root]
    extra = tuple(
        CallSite(name, rng.lognormvariate(0.0, 1.0) * 5.0)
        for name in missing
    )
    models[root] = ProcedureModel(
        procedure=root_model.procedure,
        call_sites=root_model.call_sites + extra,
        mean_invocations=max(root_model.mean_invocations, 1.0),
        body_fraction=root_model.body_fraction,
    )
    return models
