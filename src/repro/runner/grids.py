"""Comparison-grid decomposition: the paper's batches as runner tasks.

Turns the two CLI batch commands into :class:`~repro.runner.tasks.Batch`
values:

* :func:`compare_batch` — one workload × the four placement
  algorithms × (clean + *runs* perturbed profiles), i.e. the Figure 5
  sweep, one **cell task** per (algorithm, seed) plus one **profile
  task**;
* :func:`table1_batch` — the Table 1 statistics, one **row task** per
  workload.

Every task payload is pure JSON derived deterministically from the
seeds, so the renderers reproduce the exact single-process report from
any mixture of freshly-computed and checkpoint-loaded payloads.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Iterable, Mapping, Sequence

from repro.cache.config import CacheConfig
from repro.core.gbsc import GBSCPlacement
from repro.eval.experiment import build_context, place_and_simulate
from repro.eval.randomization import SEED_STRIDE, SweepResult, summarize
from repro.eval.reporting import Table1Row, format_table1, table1_row
from repro.placement.base import PlacementAlgorithm
from repro.placement.hkc import HashemiKaeliCalderPlacement
from repro.placement.identity import DefaultPlacement
from repro.placement.ph import PettisHansenPlacement
from repro.profiles.perturb import PAPER_SCALE
from repro.runner.tasks import Batch, RunnerEnv, TaskSpec, grid_fingerprint
from repro.workloads.spec import Workload


def default_algorithms() -> list[PlacementAlgorithm]:
    """The comparison set used throughout Section 5."""
    return [
        DefaultPlacement(),
        PettisHansenPlacement(),
        HashemiKaeliCalderPlacement(),
        GBSCPlacement(),
    ]


def _shared_profile(
    env: RunnerEnv,
    workload: Workload,
    config: CacheConfig,
    store: Any = None,
    trg_method: str = "fast",
) -> dict[str, Any]:
    """Process-local profile state for one workload: context + traces.

    Deterministic derived data — rebuilt lazily after a resume by the
    first pending task that needs it, never checkpointed.  With
    *store* the traces and profile structures come from the
    persistent artifact cache when available; since the data is
    deterministic either way, cache state never changes results, and
    neither does *trg_method* (bit-exact twins).
    """

    def build() -> dict[str, Any]:
        train = workload.trace("train", store=store)
        test = workload.trace("test", store=store)
        context = build_context(
            train, config, store=store, trg_method=trg_method
        )
        return {
            "context": context,
            "test": test,
            "train_events": len(train),
        }

    return env.get(f"profile-state:{workload.name}", build)


def _cell_tag(seed: int | None) -> str:
    return "clean" if seed is None else f"p{seed:03d}"


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


def compare_batch(
    workload: Workload,
    config: CacheConfig,
    runs: int = 0,
    algorithms: Sequence[PlacementAlgorithm] | None = None,
    extra_config: Mapping[str, Any] | None = None,
    store: Any = None,
    trg_method: str = "fast",
) -> Batch:
    """Decompose ``repro-layout compare`` into addressable tasks.

    *store* and *trg_method* are deliberately **not** part of the grid
    fingerprint: cache state and the choice between bit-exact TRG
    pipelines are execution details, so such runs share checkpoints
    and must render identical reports.  Cell ``p<i>`` places on the
    profile perturbed with seed ``SEED_STRIDE * i``, the noise stream
    of run *i* of a sweep at ``base_seed=0``.
    """
    algorithms = (
        list(algorithms) if algorithms is not None else default_algorithms()
    )
    names = [algorithm.name for algorithm in algorithms]
    grid_id = grid_fingerprint(
        {
            "command": "compare",
            "workload": workload.name,
            "cache": [config.size, config.line_size, config.associativity],
            "runs": runs,
            "algorithms": names,
            "extra": dict(extra_config) if extra_config else {},
        }
    )
    seeds: list[int | None] = [None, *range(runs)]
    tasks: list[TaskSpec] = []

    def shared_profile(env: RunnerEnv) -> dict[str, Any]:
        return _shared_profile(env, workload, config, store, trg_method)

    def profile_run(env: RunnerEnv) -> dict[str, Any]:
        # Only this summary is journaled; the profile itself stays
        # in-process as deterministic derived data.
        shared = shared_profile(env)
        context = shared["context"]
        return {
            "procedures": len(context.program),
            "popular": len(context.popular),
            "train_events": shared["train_events"],
        }

    profile_key = f"profile:{workload.name}"
    tasks.append(
        TaskSpec(
            key=profile_key,
            kind="profile",
            run=profile_run,
            artifact=f"profile-{workload.name}.json",
        )
    )

    def make_cell(
        algorithm: PlacementAlgorithm, seed: int | None
    ) -> TaskSpec:
        def cell_run(env: RunnerEnv) -> dict[str, Any]:
            shared = shared_profile(env)
            context = shared["context"]
            if seed is not None:
                context = context.perturbed(PAPER_SCALE, SEED_STRIDE * seed)
            stats = place_and_simulate(
                context, shared["test"], algorithm
            ).stats
            return {
                "algorithm": algorithm.name,
                "seed": seed,
                "miss_rate": stats.miss_rate,
                "misses": stats.misses,
                "fetches": stats.fetches,
            }

        tag = _cell_tag(seed)
        return TaskSpec(
            key=f"cell:{workload.name}:{algorithm.name}:{tag}",
            kind="cell",
            run=cell_run,
            artifact=f"cell-{workload.name}-{algorithm.name}-{tag}.json",
        )

    for algorithm in algorithms:
        for seed in seeds:
            tasks.append(make_cell(algorithm, seed))

    def render(results: Mapping[str, dict[str, Any]]) -> str:
        lines: list[str] = []
        profile = results.get(profile_key)
        if profile is not None:
            lines.append(
                f"{workload.name}: {profile['popular']} popular of "
                f"{profile['procedures']} procedures, "
                f"{profile['train_events']} train events"
            )
        if runs > 0:
            sweeps = []
            for name in names:
                clean = results.get(
                    f"cell:{workload.name}:{name}:clean"
                )
                rates = sorted(
                    results[key]["miss_rate"]
                    for key in (
                        f"cell:{workload.name}:{name}:{_cell_tag(s)}"
                        for s in range(runs)
                    )
                    if key in results
                )
                if clean is None or not rates:
                    continue
                sweeps.append(
                    SweepResult(
                        algorithm=name,
                        miss_rates=tuple(rates),
                        unperturbed=clean["miss_rate"],
                    )
                )
            if sweeps:
                lines.append(summarize(sweeps))
        else:
            for name in names:
                clean = results.get(
                    f"cell:{workload.name}:{name}:clean"
                )
                if clean is None:
                    continue
                lines.append(
                    f"{name:<10} miss rate {clean['miss_rate']:.4%}"
                )
        if len(lines) <= (1 if profile is not None else 0):
            lines.append("no completed cells")
        return "\n".join(lines)

    return Batch(
        command="compare",
        grid_id=grid_id,
        tasks=tuple(tasks),
        render=render,
        metadata={"workload": workload.name, "runs": runs},
    )


# ----------------------------------------------------------------------
# table1
# ----------------------------------------------------------------------


def table1_batch(
    workloads: Iterable[Workload],
    config: CacheConfig,
    extra_config: Mapping[str, Any] | None = None,
    store: Any = None,
    trg_method: str = "fast",
) -> Batch:
    """Decompose ``repro-layout table1`` into one row task per
    workload.

    As with :func:`compare_batch`, *store* and *trg_method* never
    enter the grid fingerprint.
    """
    workloads = list(workloads)
    names = [workload.name for workload in workloads]
    grid_id = grid_fingerprint(
        {
            "command": "table1",
            "workloads": names,
            "cache": [config.size, config.line_size, config.associativity],
            "extra": dict(extra_config) if extra_config else {},
        }
    )
    tasks: list[TaskSpec] = []

    def make_row(workload: Workload) -> TaskSpec:
        def row_run(env: RunnerEnv) -> dict[str, Any]:
            shared = _shared_profile(
                env, workload, config, store, trg_method
            )
            return asdict(
                table1_row(
                    workload.name,
                    shared["context"],
                    shared["train_events"],
                    shared["test"],
                )
            )

        return TaskSpec(
            key=f"row:{workload.name}",
            kind="row",
            run=row_run,
            artifact=f"row-{workload.name}.json",
        )

    for workload in workloads:
        tasks.append(make_row(workload))

    def render(results: Mapping[str, dict[str, Any]]) -> str:
        rows = [
            Table1Row(**results[f"row:{name}"])
            for name in names
            if f"row:{name}" in results
        ]
        if not rows:
            return "no completed rows"
        return format_table1(rows)

    return Batch(
        command="table1",
        grid_id=grid_id,
        tasks=tuple(tasks),
        render=render,
        metadata={"workloads": names},
    )
