"""``run_placement``: the library-level ``PlacementRequest -> Layout``
entry point.

This is the exact pipeline ``repro-layout place`` used to run inline —
resolve the trace, profile it into a
:class:`~repro.placement.base.PlacementContext` (WCG + TRGs + the
popular set), place under an ``obs`` span, simulate the layout on the
training trace — extracted so the CLI, tests and the HTTP service all
drive one implementation.  A layout produced here is byte-identical
(via :func:`repro.io.save_layout`) to one produced by the pre-service
CLI path.

Deadlines ride on the existing failure boundary: the body runs under a
zero-retry :class:`~repro.runner.TaskGuard` whose
:class:`~repro.resilience.DeadlinePolicy` is *soft* — an overrunning
request is detected when it completes, its layout is discarded and a
:class:`~repro.errors.TaskTimeout` raised instead (the HTTP frontend
maps that to a 504-style status).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro import obs
from repro.cache.stats import MissStats
from repro.errors import TaskTimeout
from repro.eval.experiment import build_context, place_and_simulate
from repro.placement.base import PlacementContext
from repro.program.layout import Layout
from repro.runner import TaskGuard
from repro.service.requests import PlacementRequest, make_algorithm
from repro.trace.trace import Trace

__all__ = ["PlacementResult", "run_placement"]


@dataclass(frozen=True)
class PlacementResult:
    """What one placement job produced."""

    algorithm: str
    layout: Layout
    context: PlacementContext
    trace: Trace
    train_stats: MissStats
    elapsed: float


def _place_once(request: PlacementRequest) -> dict[str, Any]:
    trace = request.resolve_trace()
    context = build_context(trace, request.config, store=request.store)
    # The layout is scored on the trace it was trained on.
    outcome = place_and_simulate(
        context, trace, make_algorithm(request.algorithm)
    )
    obs.set_gauge("place.procedures", len(context.program))
    return {
        "algorithm": outcome.algorithm,
        "layout": outcome.layout,
        "context": context,
        "trace": trace,
        "train_stats": outcome.stats,
    }


def run_placement(request: PlacementRequest) -> PlacementResult:
    """Execute *request* and return the placed layout with its stats.

    Raises :class:`~repro.errors.ServiceError` on an invalid request,
    :class:`~repro.errors.TaskTimeout` when a ``deadline`` was given
    and the job overran it, and whatever the pipeline itself raises
    (all :class:`~repro.errors.ReproError` subclasses) otherwise.
    """
    request.validate()
    guard = TaskGuard(
        key=f"service:place:{request.algorithm}",
        retries=0,
        deadline=request.deadline,
    )
    captured: dict[str, Any] = {}

    def _attempt(_index: int) -> dict[str, Any]:
        try:
            captured["value"] = _place_once(request)
        except BaseException as error:
            captured["error"] = error
            raise
        return {"ok": True}

    outcome = guard.run(_attempt)
    if outcome.failure is not None:
        error = captured.get("error")
        if error is not None:
            # The guard converted a pipeline exception to structured
            # data; the library contract is to raise it unchanged.
            raise error
        raise TaskTimeout(outcome.failure.message)
    value = captured["value"]
    return PlacementResult(
        algorithm=value["algorithm"],
        layout=value["layout"],
        context=value["context"],
        trace=value["trace"],
        train_stats=value["train_stats"],
        elapsed=outcome.elapsed,
    )
